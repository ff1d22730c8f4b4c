#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bench {

size_t
samplesBeyond(size_t n, double p)
{
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    return rank >= n ? 0 : n - rank;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return samples[rank - 1];
}

std::optional<double>
tailPercentile(size_t n)
{
    static const double kLadder[] = {99.99, 99.9, 99.5, 99, 98,
                                     95,    90,   75,   50};
    for (double p : kLadder)
        if (samplesBeyond(n, p) >= kTailBeyond)
            return p;
    return std::nullopt;
}

std::string
percentileName(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", p);
    return buf;
}

std::vector<double>
quietest(const std::vector<std::vector<double>> &repeats)
{
    std::vector<double> pooled;
    for (std::vector<double> unit : repeats) {
        std::sort(unit.begin(), unit.end());
        auto keep = static_cast<size_t>(std::ceil(kQuietShare * unit.size()));
        keep = std::min(std::max<size_t>(keep, 1), unit.size());
        pooled.insert(pooled.end(), unit.begin(), unit.begin() + keep);
    }
    return pooled;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50);
}

} // namespace bench
