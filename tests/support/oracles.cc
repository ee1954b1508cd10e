#include "tests/support/oracles.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace wct
{
namespace oracle
{

namespace
{

/** Population standard deviation by direct two-pass computation. */
double
populationSd(std::span<const Observation> side)
{
    if (side.empty())
        return 0.0;
    double sum = 0.0;
    for (const Observation &obs : side)
        sum += obs.target;
    const double mean = sum / static_cast<double>(side.size());
    double ss = 0.0;
    for (const Observation &obs : side)
        ss += (obs.target - mean) * (obs.target - mean);
    return std::sqrt(ss / static_cast<double>(side.size()));
}

} // namespace

SplitCandidate
bestSdrSplitExhaustive(std::vector<Observation> observations,
                       double node_sd, std::size_t min_leaf)
{
    SplitCandidate best;
    const std::size_t n = observations.size();
    if (n < 2)
        return best;
    std::sort(observations.begin(), observations.end(),
              [](const Observation &a, const Observation &b) {
                  return a.value < b.value;
              });

    double best_sdr = -1.0;
    const double fn = static_cast<double>(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (observations[i].value == observations[i + 1].value)
            continue;
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < min_leaf || nr < min_leaf)
            continue;
        const std::span<const Observation> all(observations);
        const double sd_left = populationSd(all.subspan(0, nl));
        const double sd_right = populationSd(all.subspan(nl));
        const double sdr = node_sd -
            (static_cast<double>(nl) / fn) * sd_left -
            (static_cast<double>(nr) / fn) * sd_right;
        if (sdr > best_sdr) {
            best_sdr = sdr;
            best.valid = true;
            best.sdr = sdr;
            best.leftCount = nl;
            best.value = 0.5 * (observations[i].value +
                                observations[i + 1].value);
        }
    }
    return best;
}

SplitCandidate
sortedNodeSplit(std::vector<Observation> observations, double node_sd,
                std::size_t min_leaf)
{
    std::stable_sort(observations.begin(), observations.end(),
                     [](const Observation &a, const Observation &b) {
                         return a.value < b.value;
                     });
    std::vector<double> values;
    std::vector<double> targets;
    values.reserve(observations.size());
    targets.reserve(observations.size());
    for (const Observation &obs : observations) {
        values.push_back(obs.value);
        targets.push_back(obs.target);
    }
    return findBestSdrSplitPresorted(values, targets, node_sd,
                                     min_leaf);
}

double
meanTwoPass(std::span<const double> xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
sampleVarianceTwoPass(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double mean = meanTwoPass(xs);
    double ss = 0.0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    return ss / static_cast<double>(xs.size() - 1);
}

std::optional<Ols1Fit>
ols1(std::span<const double> x, std::span<const double> y)
{
    const double mx = meanTwoPass(x);
    const double my = meanTwoPass(y);
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sxx += (x[i] - mx) * (x[i] - mx);
        sxy += (x[i] - mx) * (y[i] - my);
    }
    if (sxx == 0.0)
        return std::nullopt;
    Ols1Fit fit;
    fit.b1 = sxy / sxx;
    fit.b0 = my - fit.b1 * mx;
    return fit;
}

std::optional<Ols2Fit>
ols2(std::span<const double> x1, std::span<const double> x2,
     std::span<const double> y)
{
    const double m1 = meanTwoPass(x1);
    const double m2 = meanTwoPass(x2);
    const double my = meanTwoPass(y);
    double s11 = 0.0;
    double s22 = 0.0;
    double s12 = 0.0;
    double s1y = 0.0;
    double s2y = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double d1 = x1[i] - m1;
        const double d2 = x2[i] - m2;
        const double dy = y[i] - my;
        s11 += d1 * d1;
        s22 += d2 * d2;
        s12 += d1 * d2;
        s1y += d1 * dy;
        s2y += d2 * dy;
    }
    // Cramer's rule on the centered 2x2 normal system; reject when
    // the determinant is tiny relative to its terms (collinear
    // predictors, where the ridge-stabilised solver and any exact
    // method legitimately diverge).
    const double det = s11 * s22 - s12 * s12;
    if (std::fabs(det) <= 1e-10 * std::max(s11 * s22, s12 * s12))
        return std::nullopt;
    Ols2Fit fit;
    fit.b1 = (s1y * s22 - s2y * s12) / det;
    fit.b2 = (s2y * s11 - s1y * s12) / det;
    fit.b0 = my - fit.b1 * m1 - fit.b2 * m2;
    return fit;
}

double
l1ProfileDistance(std::span<const double> a, std::span<const double> b)
{
    double total = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        total += std::fabs(a[i] - b[i]);
    return 0.5 * total;
}

double
studentTTwoSidedPBySimpson(double t, double df)
{
    const double limit = std::fabs(t);
    if (limit == 0.0)
        return 1.0;
    // Density f(x) = C (1 + x²/df)^{-(df+1)/2} with
    // log C = lgamma((df+1)/2) - lgamma(df/2) - log(df·pi)/2.
    const double log_c = std::lgamma((df + 1.0) / 2.0) -
        std::lgamma(df / 2.0) -
        0.5 * std::log(df * 3.14159265358979323846);
    const auto density = [&](double x) {
        return std::exp(log_c -
                        0.5 * (df + 1.0) * std::log1p(x * x / df));
    };
    // Beyond ~60 deviations every double rounds the tail to zero.
    const double upper = std::min(limit, 60.0 * std::sqrt(df));
    const std::size_t panels = 40000; // even
    const double h = upper / static_cast<double>(panels);
    double integral = density(0.0) + density(upper);
    for (std::size_t k = 1; k < panels; ++k)
        integral += density(h * static_cast<double>(k)) *
            (k % 2 == 1 ? 4.0 : 2.0);
    integral *= h / 3.0;
    return std::clamp(1.0 - 2.0 * integral, 0.0, 1.0);
}

double
welch(std::span<const double> xs, std::span<const double> ys)
{
    const double n1 = static_cast<double>(xs.size());
    const double n2 = static_cast<double>(ys.size());
    const double se = std::sqrt(sampleVarianceTwoPass(xs) / n1 +
                                sampleVarianceTwoPass(ys) / n2);
    const double diff = meanTwoPass(xs) - meanTwoPass(ys);
    if (se == 0.0)
        return diff == 0.0 ? 0.0
                           : std::numeric_limits<double>::infinity();
    return diff / se;
}

PlainCache::PlainCache(const CacheConfig &config)
    : config_(config)
{
    numSets_ = config.sizeBytes / (config.lineBytes * config.ways);
    lineShift_ = std::countr_zero(config.lineBytes);
    lines_.resize(numSets_ * config.ways);
    if (config.policy == ReplacementPolicy::TreePlru)
        plruBits_.assign(numSets_, 0);
}

std::uint32_t
PlainCache::victimWay(std::uint64_t set)
{
    Line *base = &lines_[set * config_.ways];

    // Invalid ways are always preferred, regardless of policy.
    for (std::uint32_t w = 0; w < config_.ways; ++w)
        if (!base[w].valid)
            return w;

    switch (config_.policy) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < config_.ways; ++w)
            if (base[w].stamp < base[victim].stamp)
                victim = w;
        return victim;
      }
      case ReplacementPolicy::Random:
        rngState_ ^= rngState_ << 13;
        rngState_ ^= rngState_ >> 7;
        rngState_ ^= rngState_ << 17;
        return static_cast<std::uint32_t>(rngState_ % config_.ways);
      case ReplacementPolicy::TreePlru: {
        const std::uint32_t bits = plruBits_[set];
        std::uint32_t node = 1;
        while (node < config_.ways) {
            const bool go_right = ((bits >> (node - 1)) & 1) == 0;
            node = node * 2 + (go_right ? 1 : 0);
        }
        return node - config_.ways;
      }
    }
    return 0;
}

void
PlainCache::touch(std::uint64_t set, std::uint32_t way, bool fill)
{
    Line &line = lines_[set * config_.ways + way];
    switch (config_.policy) {
      case ReplacementPolicy::Lru:
        line.stamp = tick_;
        break;
      case ReplacementPolicy::Fifo:
        if (fill)
            line.stamp = tick_;
        break;
      case ReplacementPolicy::Random:
        break;
      case ReplacementPolicy::TreePlru: {
        std::uint32_t bits = plruBits_[set];
        std::uint32_t node = way + config_.ways;
        while (node > 1) {
            const bool is_right = (node & 1) != 0;
            node /= 2;
            const std::uint32_t mask = 1u << (node - 1);
            if (is_right)
                bits |= mask;
            else
                bits &= ~mask;
        }
        plruBits_[set] = bits;
        break;
      }
    }
}

bool
PlainCache::access(std::uint64_t addr)
{
    ++accesses_;
    ++tick_;
    const std::uint64_t block = addr >> lineShift_;
    const std::uint64_t set = block % numSets_;
    const std::uint64_t tag = block / numSets_;
    Line *base = &lines_[set * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            touch(set, w, /*fill=*/false);
            return true;
        }
    }
    ++misses_;
    const std::uint32_t victim = victimWay(set);
    base[victim].valid = true;
    base[victim].tag = tag;
    touch(set, victim, /*fill=*/true);
    return false;
}

bool
PlainCache::contains(std::uint64_t addr) const
{
    const std::uint64_t block = addr >> lineShift_;
    const std::uint64_t set = block % numSets_;
    const std::uint64_t tag = block / numSets_;
    const Line *base = &lines_[set * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
PlainCache::reset()
{
    for (Line &line : lines_)
        line = Line{};
    if (config_.policy == ReplacementPolicy::TreePlru)
        plruBits_.assign(numSets_, 0);
    tick_ = 0;
    rngState_ = 0x9e3779b97f4a7c15ull;
    accesses_ = 0;
    misses_ = 0;
}

PlainStoreBuffer::PlainStoreBuffer(const StoreBufferConfig &config)
    : config_(config), ring_(config.entries)
{
}

void
PlainStoreBuffer::recordStore(const Inst &store, std::uint64_t now)
{
    Entry &slot = ring_[head_];
    slot.addr = store.addr;
    slot.bornAt = now;
    slot.size = store.size;
    slot.slowAddress = store.slowAddress();
    slot.slowData = store.slowData();
    slot.valid = true;
    head_ = (head_ + 1) % ring_.size();
}

LoadBlock
PlainStoreBuffer::checkLoad(const Inst &load, std::uint64_t now) const
{
    constexpr std::uint64_t kPageMask = 0xFFF;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const Entry &store =
            ring_[(head_ + ring_.size() - 1 - i) % ring_.size()];
        if (!store.valid)
            continue;
        const std::uint64_t age = now - store.bornAt;
        if (age >= config_.lifetime)
            continue;
        if (store.slowAddress && age < config_.staResolveAge) {
            if (((load.addr ^ store.addr) & kPageMask) < 8)
                return LoadBlock::Sta;
            continue;
        }
        if (load.addr < store.addr + store.size &&
            store.addr < load.addr + load.size) {
            const bool covers = store.addr <= load.addr &&
                store.addr + store.size >= load.addr + load.size;
            if (!covers)
                return LoadBlock::Overlap;
            if (store.slowData && age < config_.stdResolveAge)
                return LoadBlock::Std;
            return LoadBlock::Forwarded;
        }
        if ((load.addr & kPageMask) == (store.addr & kPageMask) &&
            load.addr != store.addr) {
            return LoadBlock::Overlap;
        }
    }
    return LoadBlock::None;
}

void
PlainStoreBuffer::reset()
{
    for (Entry &slot : ring_)
        slot.valid = false;
    head_ = 0;
}

} // namespace oracle
} // namespace wct
