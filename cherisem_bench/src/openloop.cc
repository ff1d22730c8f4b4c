#include "openloop.h"

#include <random>
#include <thread>

namespace bench {

std::vector<int64_t>
poissonSchedule(double ratePerS, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(ratePerS);
    std::vector<int64_t> due(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
        t += gap(rng);
        due[i] = static_cast<int64_t>(t * 1e9);
    }
    return due;
}

void
waitUntil(int64_t dueNs)
{
    // Sleep until just before the due time: a generator that spins
    // keeps its vCPU busy, and a busy vCPU is what the host preempts
    // for milliseconds at a time.
    constexpr int64_t kSpinNs = 50'000;
    int64_t now = nowNs();
    if (dueNs - now > kSpinNs)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(dueNs - now - kSpinNs));
    while (nowNs() < dueNs) {
    }
}

} // namespace bench
