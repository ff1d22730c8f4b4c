/**
 * @file
 * In-memory span recording for the traced run.
 *
 * The benchmark records one span around each call it makes into a
 * layer's public entry point: layer name, start, end, the span that
 * caused it and the request it belongs to.  Spans stay in memory
 * until the run ends; then per-layer self times are computed and a
 * Chrome-trace file (chrome://tracing, Perfetto) is written.
 */
#ifndef CHERISEM_BENCH_SPANS_H
#define CHERISEM_BENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/** Steady-clock nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    static constexpr uint32_t kNoParent = UINT32_MAX;

    uint32_t layer = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Per-layer totals over a set of spans. */
struct LayerTime
{
    std::string layer;
    uint64_t spans = 0;
    /** Sum of span durations. */
    int64_t totalNs = 0;
    /** Sum of span durations minus the time their children cover. */
    int64_t selfNs = 0;
};

/** Single-threaded span store. */
class SpanRecorder
{
  public:
    /** Interned id of @p name. */
    uint32_t layer(std::string_view name);

    /** Record a finished span; returns its index (for children). */
    uint32_t add(uint32_t layer, uint64_t request, uint32_t parent,
                 int64_t startNs, int64_t endNs);
    /** Open a span now; close it with end(). */
    uint32_t begin(uint32_t layer, uint64_t request,
                   uint32_t parent = Span::kNoParent);
    void end(uint32_t index) { spans_[index].endNs = nowNs(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self and total time per layer name.  A span's self time is
     *  its duration minus the durations of its direct children
     *  (children of one span never overlap).  Every interned layer
     *  has an entry, with zero spans if none was recorded. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write the spans of the first @p maxRequests requests as Chrome
     *  trace "X" events (one track per request).  Returns false when
     *  the file cannot be written. */
    bool writeChromeTrace(const std::string &path,
                          uint64_t maxRequests) const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, uint32_t layer, uint64_t request,
               uint32_t parent = Span::kNoParent)
        : rec_(rec), index_(rec->begin(layer, request, parent))
    {
    }
    ~ScopedSpan() { rec_->end(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t index() const { return index_; }

  private:
    SpanRecorder *rec_;
    uint32_t index_;
};

} // namespace bench

#endif // CHERISEM_BENCH_SPANS_H
