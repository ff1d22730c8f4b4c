/**
 * @file
 * Open-loop request generation: Poisson due times fixed in advance
 * from the workload seed, and a generator that sends each request
 * when it falls due.  Latency is timed from the due time, never from
 * the send time, so a stall that delays later sends (a full queue,
 * a descheduled generator) is charged to every request it delays.
 */
#ifndef CHERISEM_BENCH_OPENLOOP_H
#define CHERISEM_BENCH_OPENLOOP_H

#include <cstdint>
#include <vector>

#include "spans.h"

namespace bench {

/** Due offsets (ns from the phase start, ascending) of @p n Poisson
 *  arrivals at @p ratePerS; the same seed gives the same offsets. */
std::vector<int64_t> poissonSchedule(double ratePerS, size_t n,
                                     uint64_t seed);

/** Return at steady-clock time @p dueNs or just after: sleep while
 *  far from it, then spin. */
void waitUntil(int64_t dueNs);

/** For each request i: call @p prepare(i) (client-side work such as
 *  rendering the request), wait until @p t0Ns + @p dueOffsets[i],
 *  record the actual send time in (*sentNs)[i], then call
 *  @p send(i).  A send that blocks makes the following requests
 *  late; their lateness is sentNs - due. */
template <class Prepare, class Send>
void
runOpenLoop(const std::vector<int64_t> &dueOffsets, int64_t t0Ns,
            std::vector<int64_t> *sentNs, Prepare &&prepare, Send &&send)
{
    sentNs->assign(dueOffsets.size(), 0);
    for (size_t i = 0; i < dueOffsets.size(); ++i) {
        prepare(i);
        waitUntil(t0Ns + dueOffsets[i]);
        (*sentNs)[i] = nowNs();
        send(i);
    }
}

/** Milliseconds from request i's due time to @p eventNs. */
inline double
sinceDueMs(const std::vector<int64_t> &dueOffsets, int64_t t0Ns,
           size_t i, int64_t eventNs)
{
    return (eventNs - (t0Ns + dueOffsets[i])) / 1e6;
}

} // namespace bench

#endif // CHERISEM_BENCH_OPENLOOP_H
