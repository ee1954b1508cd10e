#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace wct
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed; xoshiro must not start from the all-zero state,
    // which splitmix64 expansion cannot produce for any seed.
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

Rng
Rng::fork(std::uint64_t salt) const
{
    std::uint64_t mix = state_[0] ^ rotl(state_[2], 29) ^
        (salt * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
    return Rng(mix);
}

double
Rng::uniform(double lo, double hi)
{
    wct_assert(lo <= hi, "bad uniform range [", lo, ", ", hi, ")");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    wct_assert(bound > 0, "uniformInt bound must be positive");
    // A power of two divides 2^64: the rejection threshold below is 0,
    // so one draw, masked, is the same value without the divisions.
    if ((bound & (bound - 1)) == 0)
        return (*this)() & (bound - 1);
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    // Box-Muller transform on two fresh uniforms.
    double u1 = uniform();
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    spareNormal_ = radius * std::sin(angle);
    hasSpareNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double sd)
{
    wct_assert(sd >= 0.0, "negative standard deviation ", sd);
    return mean + sd * normal();
}

double
Rng::exponential(double rate)
{
    wct_assert(rate > 0.0, "exponential rate must be positive");
    double u = uniform();
    while (u <= 0.0)
        u = uniform();
    return -std::log(u) / rate;
}

std::uint64_t
Rng::geometric(double p)
{
    wct_assert(p > 0.0 && p <= 1.0, "geometric p out of range: ", p);
    if (p >= 1.0)
        return 1;
    double u = uniform();
    while (u <= 0.0)
        u = uniform();
    return 1 +
        static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

std::size_t
Rng::weightedChoice(const std::vector<double> &weights)
{
    wct_assert(!weights.empty(), "weightedChoice on empty weights");
    double total = 0.0;
    for (double w : weights) {
        wct_assert(w >= 0.0, "negative weight ", w);
        total += w;
    }
    wct_assert(total > 0.0, "weightedChoice weights sum to zero");
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    wct_assert(n > 0, "zipf over empty range");
    double total = 0.0;
    for (std::size_t i = 1; i <= n; ++i)
        total += 1.0 / std::pow(static_cast<double>(i), s);
    double target = uniform() * total;
    for (std::size_t i = 1; i <= n; ++i) {
        target -= 1.0 / std::pow(static_cast<double>(i), s);
        if (target < 0.0)
            return i - 1;
    }
    return n - 1;
}

} // namespace wct
