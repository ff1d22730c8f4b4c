/**
 * @file
 * Sample statistics for cherisem-bench: nearest-rank percentiles, the
 * tail rule (report the highest percentile that still has at least ten
 * samples beyond it) and the quiet-repeat selection.
 */
#ifndef CHERISEM_BENCH_STATS_H
#define CHERISEM_BENCH_STATS_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace bench {

/** Samples that a reported tail percentile must have beyond it. */
constexpr size_t kTailBeyond = 10;

/** Nearest-rank percentile of unsorted @p samples (0 when empty). */
double percentile(std::vector<double> samples, double p);

/** Samples strictly beyond the nearest-rank percentile @p p of @p n
 *  samples. */
size_t samplesBeyond(size_t n, double p);

/** The highest percentile on the ladder 50, 75, 90, 95, 98, 99,
 *  99.5, 99.9, 99.99 that has at least kTailBeyond samples beyond it
 *  among @p n samples; empty when even the median has fewer. */
std::optional<double> tailPercentile(size_t n);

/** "p99", "p99.5", "p95": the metric-name form of a percentile. */
std::string percentileName(double p);

/** Share of each unit's repeats that quietest() keeps. */
constexpr double kQuietShare = 0.1;

/** @p repeats[u] holds the times of every repeat of unit of work u
 *  (a request, a set-up, a seed).  Returns, pooled over the units, the
 *  ceil(kQuietShare * n) fastest repeats of each unit.  Interference
 *  from other tenants of the host only ever adds time and comes in
 *  stretches of milliseconds to minutes; a unit's quietest repeats are
 *  the ones it left alone, which is what a change to the program can
 *  move.  Every unit keeps the same number of repeats, so the pool
 *  has the workload's own mix. */
std::vector<double> quietest(const std::vector<std::vector<double>> &repeats);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

} // namespace bench

#endif // CHERISEM_BENCH_STATS_H
