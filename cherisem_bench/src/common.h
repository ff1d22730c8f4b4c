/**
 * @file
 * What every cherisem-bench workload shares: options, the result a
 * run reports, the metric catalogue, and the request path helpers
 * (serve protocol round trip, verdict oracle, traced client).
 */
#ifndef CHERISEM_BENCH_COMMON_H
#define CHERISEM_BENCH_COMMON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corelang/eval.h"
#include "driver/interpreter.h"
#include "driver/profiles.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"

namespace bench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** The run length the work is sized for (fixed work per run:
     *  the amount depends on this value only, never on the clock). */
    double seconds = 10;
    bool trace = false;
    /** Repository root (tests/suite lives under it). */
    std::string root = ".";
    /** Directory of the benchmark's own inputs (kernels/). */
    std::string benchDir = "cherisem_bench";
    /** Chrome-trace output of the traced run (empty = none). */
    std::string traceFile;
};

/** What one run reports: verdict accounting plus named metrics. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The first few failure descriptions. */
    std::vector<std::string> failures;
    /** Metric values by name; units come from the catalogue. */
    std::map<std::string, double> metrics;
    /** Extra lines printed for people, not part of the JSON. */
    std::vector<std::string> notes;

    /** Count one checked verdict; record @p what when !ok. */
    void check(bool ok, const std::string &what);
    /** Add a line for people; repeated set-ups add theirs once. */
    void note(const std::string &line);
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *help;
};

/** The end-to-end metrics every untraced run reports. */
const std::vector<MetricDef> &endToEndMetrics();
/** The per-layer metrics every traced run reports (0 for a layer the
 *  workload does not pass through). */
const std::vector<MetricDef> &perLayerMetrics();

/** What every workload has: set-up (timed by the gated workloads)
 *  and the traced run. */
class TracedWorkload
{
  public:
    virtual ~TracedWorkload() = default;
    /** Everything before the timed phase, warm-up included.  Checks
     *  the warm-up verdicts into @p r. */
    virtual void setup(Result *r) = 0;
    /** The traced run: fills the per-layer metrics. */
    virtual void runTraced(Result *r, SpanRecorder *spans) = 0;
};

/** A gated workload.  Its timed phase is a fixed number of passes
 *  over its requests, so that main() can interleave the repeated
 *  set-ups with the passes. */
class Workload : public TracedWorkload
{
  public:
    /** Passes of the timed phase (fixed work for the run length). */
    virtual size_t passes() const = 0;
    /** Timed pass @p pass (0 <= pass < passes()). */
    virtual void runPass(size_t pass, Result *r) = 0;
    /** Fill the end-to-end metrics except setup_s and peak_rss_mib
     *  from the passes run. */
    virtual void report(Result *r) = 0;
};

std::unique_ptr<Workload> makeSuiteCold(const Options &o);
std::unique_ptr<Workload> makeEvalKernels(const Options &o);
/** Not gated: their traced runs supply the serve.* and fuzz.*
 *  metrics of the gated workloads' traced runs (see main.cc). */
std::unique_ptr<TracedWorkload> makeServeMixed(const Options &o);
std::unique_ptr<TracedWorkload> makeFuzzCampaign(const Options &o);

/** Fixed work: @p perSecond units for each second of the nominal run
 *  length, at least @p floor. */
size_t workUnits(const Options &o, double perSecond, size_t floor = 1);

/** The serve response of one run, checked against a suite
 *  expectation ("exit N", "ub NAME", ...) with driver::outcomeMatches. */
bool responseMatches(const cherisem::serve::Response &resp,
                     const std::string &expectation);

/** The suite expectation string ("exit N", "ub NAME", ...) that
 *  @p o satisfies. */
std::string expectationOf(const cherisem::corelang::Outcome &o);

/** Per-request layer accounting shared by the traced runs. */
struct LayerCounters
{
    uint64_t requests = 0;
    uint64_t srcBytesParsed = 0;
    uint64_t rewrites = 0;
    uint64_t steps = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t allocations = 0;
    uint64_t tagInvalidations = 0;
    uint64_t pagesAllocated = 0;
    uint64_t placements = 0;
    uint64_t reuses = 0;
    uint64_t sweeps = 0;
    uint64_t slotsVisited = 0;
    uint64_t cacheHits = 0;

    /** Count one served request.  Steps, loads and stores come from
     *  the response; the counters the protocol does not carry, and
     *  the optimizer's rewrites on a miss, from @p oracle, the
     *  driver::runSource result of the same (source, profile). */
    void add(const cherisem::serve::Response &resp,
             const cherisem::driver::RunResult &oracle, size_t srcBytes);
};

/** True when @p resp reports the steps, loads and stores of
 *  @p oracle (the counters LayerCounters::add takes from each). */
bool countersAgree(const cherisem::serve::Response &resp,
                   const cherisem::driver::RunResult &oracle);

/** A client of a serve::Server that records spans around the calls
 *  it makes: serve::parseRequest and Response::render
 *  (serve.protocol) and Server::runNow (serve.runNow), under one
 *  request span.  What runNow spends in the front half and in eval
 *  is the server's own accounting, Response::phases: each nonzero
 *  phase becomes a child span of serve.runNow (frontend.parse,
 *  sema.analyze, optimize, compile, eval), laid back to back from
 *  runNow's start in pipeline order.  The figures therefore follow
 *  whatever the server's request path does; a phase it drops
 *  disappears.  serve.runNow's self time is the rest of runNow:
 *  front-cache lookup, witness digest, response building. */
class TracedClient
{
  public:
    explicit TracedClient(SpanRecorder *spans);

    /** Serve @p line through @p server as request @p requestId. */
    cherisem::serve::Response run(cherisem::serve::Server &server,
                                  const std::string &line,
                                  uint64_t requestId);

  private:
    SpanRecorder *spans_;
    uint32_t lRequest_, lProtocol_, lRunNow_, lParse_, lSema_,
        lOptimize_, lCompile_, lEval_;
};

/** Fill the frontend/sema/optimize/compile/eval/mem/store/heap/
 *  revoke per-layer metrics and trace.coverage_ratio from the spans
 *  of a TracedClient and from @p c. */
void reportLayers(const SpanRecorder &spans, const LayerCounters &c,
                  Result *r);

/** Serve one NDJSON request line through @p server on the calling
 *  thread: serve::parseRequest, Server::runNow, Response::render. */
cherisem::serve::Response serveLine(cherisem::serve::Server &server,
                                    const std::string &line);

/** @p order becomes 0..n-1 shuffled by (seed, pass). */
void shuffledOrder(uint64_t seed, uint64_t pass, std::vector<size_t> *order);

/** verdicts_per_s, latency_p50_ms and latency_tail_ms of a closed
 *  loop whose requests took @p latMs back to back.  The tail is
 *  percentile @p tailP, or by default the highest percentile with
 *  kTailBeyond samples beyond it. */
void reportClosedLoop(const std::vector<double> &latMs,
                      std::optional<double> tailP, Result *r);

/** One NDJSON run request line. */
std::string renderRun(const std::string &id, const std::string &source,
                      const std::string &profile, bool traceDigest);

} // namespace bench

#endif // CHERISEM_BENCH_COMMON_H
