/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * The toolkit never uses std::random_device or global generators: every
 * stochastic component receives an explicit Rng so that a whole
 * experiment replays bit-identically from a single seed. The core
 * generator is xoshiro256** seeded through splitmix64, which is fast,
 * passes BigCrush, and is trivially forkable into independent streams.
 */

#ifndef WCT_UTIL_RNG_HH
#define WCT_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace wct
{

/** splitmix64 step; used for seeding and stream derivation. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * xoshiro256** 1.0 pseudo random generator with distribution helpers.
 *
 * Satisfies enough of UniformRandomBitGenerator to be used directly,
 * but the member helpers below avoid libstdc++ distribution objects,
 * whose output is not specified and could change across versions.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /**
     * Derive an independent child stream.
     *
     * @param salt Distinguishes children forked from the same parent
     *             state; callers pass stable identifiers (benchmark
     *             index, phase index, ...) so layouts never depend on
     *             call order.
     */
    Rng fork(std::uint64_t salt) const;

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random bits scaled into [0, 1).
        return ((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) with rejection for exactness. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli draw with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (cached spare value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double sd);

    /** Exponential with the given rate (lambda). */
    double exponential(double rate);

    /** Geometric trial count (>= 1) with success probability p. */
    std::uint64_t geometric(double p);

    /**
     * Sample an index proportionally to the given nonnegative weights.
     * Panics if the weights are empty or sum to zero.
     */
    std::size_t weightedChoice(const std::vector<double> &weights);

    /**
     * Zipf-like draw in [0, n) with exponent s, implemented by
     * inverse-CDF over precomputable harmonic weights; slow path kept
     * simple because address generators cache their own tables.
     */
    std::size_t zipf(std::size_t n, double s);

    /** Fisher-Yates shuffle of an index-addressable container. */
    template <typename Seq>
    void
    shuffle(Seq &seq)
    {
        if (seq.size() < 2)
            return;
        for (std::size_t i = seq.size() - 1; i > 0; --i) {
            std::size_t j = uniformInt(i + 1);
            std::swap(seq[i], seq[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    double spareNormal_ = 0.0;
    bool hasSpareNormal_ = false;
};

} // namespace wct

#endif // WCT_UTIL_RNG_HH
