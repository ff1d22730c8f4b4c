#include "common.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>

#include "driver/suite.h"
#include "mem/ub.h"
#include "stats.h"

namespace bench {

using namespace cherisem;

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 10)
        failures.push_back(what);
}

void
Result::note(const std::string &line)
{
    if (std::find(notes.begin(), notes.end(), line) == notes.end())
        notes.push_back(line);
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s",
         "median of the quietest tenth of 30 set-ups (inputs, oracles, "
         "warm-up)"},
        {"peak_rss_mib", "MiB", "peak resident set of the process"},
        {"verdicts_per_s", "1/s",
         "checked verdicts completed per second of the timed phase"},
        {"latency_p50_ms", "ms", "median latency of one verdict"},
        {"latency_tail_ms", "ms",
         "highest percentile with >=10 samples beyond it (see notes)"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"frontend.parse_us_per_req", "us", "frontend::parse self time"},
        {"frontend.src_bytes_per_s", "B/s", "source bytes parsed per second"},
        {"sema.analyze_us_per_req", "us", "sema::analyze self time"},
        {"optimize.us_per_req", "us", "corelang::optimize self time"},
        {"optimize.rewrites", "count", "optimizer rewrites per request"},
        {"compile.us_per_req", "us", "bytecode compile self time"},
        {"eval.us_per_req", "us", "corelang::evaluate self time"},
        {"eval.steps", "count", "evaluation steps per request"},
        {"eval.steps_per_s", "1/s", "evaluation steps per second of eval"},
        {"mem.loads", "count", "loads per request"},
        {"mem.stores", "count", "stores per request"},
        {"mem.allocations", "count", "allocations per request"},
        {"mem.tag_invalidations", "count",
         "ghost + hard tag invalidations per request"},
        {"store.pages_allocated", "count", "store pages per request"},
        {"heap.placements", "count", "heap placements per request"},
        {"heap.reuse_ratio", "ratio", "placements served by reuse"},
        {"revoke.sweeps", "count", "revocation sweeps per request"},
        {"revoke.slots_visited", "count",
         "capability slots swept per request"},
        {"obs.trace_overhead_ratio", "ratio",
         "server eval phase with trace_digest / without"},
        {"obs.events_per_req", "count", "witness events per request"},
        {"serve.queue_wait_p50_ms", "ms", "median worker-queue wait"},
        {"serve.queue_wait_p99_ms", "ms", "p99 worker-queue wait"},
        {"serve.service_p50_ms", "ms", "median in-server service time"},
        {"serve.cache_hit_ratio", "ratio", "front-cache hits / requests"},
        {"serve.protocol_us_per_req", "us",
         "parseRequest + Response::render per request"},
        {"serve.gen_lateness_p99_ms", "ms",
         "p99 of how late the generator sent"},
        {"serve.max_rps", "1/s",
         "highest ladder rate meeting the p99 limit without backlog"},
        {"fuzz.generate_us_per_seed", "us", "fuzz::generateProgram time"},
        {"fuzz.runcase_ms_per_seed", "ms", "fuzz::runCase time"},
        {"fuzz.hard_failures", "count", "hard differential findings"},
        {"fuzz.expected_divergences", "count",
         "documented cross-profile divergences"},
        {"trace.coverage_ratio", "ratio",
         "layer self time / request span time"},
        {"trace.overhead_ratio", "ratio",
         "traced / untraced per-request time in the same run"},
    };
    return defs;
}

size_t
workUnits(const Options &o, double perSecond, size_t floor)
{
    auto n = static_cast<size_t>(std::llround(o.seconds * perSecond));
    return std::max(n, floor);
}

namespace {

std::optional<mem::Ub>
ubByName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(mem::Ub::MemcpyOverlap); ++i) {
        auto ub = static_cast<mem::Ub>(i);
        if (name == mem::ubName(ub))
            return ub;
    }
    return std::nullopt;
}

} // namespace

bool
responseMatches(const serve::Response &resp, const std::string &expectation)
{
    using Kind = corelang::Outcome::Kind;
    corelang::Outcome o;
    if (resp.verdict == "exit") {
        o.kind = Kind::Exit;
        o.exitCode = resp.exitCode;
    } else if (resp.verdict == "ub") {
        std::optional<mem::Ub> ub = ubByName(resp.ubName);
        if (!ub)
            return false;
        o.kind = Kind::Undefined;
        o.failure.ub = *ub;
    } else if (resp.verdict == "assert-fail") {
        o.kind = Kind::AssertFail;
    } else if (resp.verdict == "error") {
        o.kind = Kind::Error;
    } else if (resp.verdict == "resource-exhausted") {
        o.kind = Kind::ResourceExhausted;
    } else {
        return false;
    }
    return driver::outcomeMatches(o, expectation);
}

std::string
expectationOf(const corelang::Outcome &o)
{
    using Kind = corelang::Outcome::Kind;
    switch (o.kind) {
      case Kind::Exit:
        return "exit " + std::to_string(o.exitCode);
      case Kind::Undefined:
        return std::string("ub ") + mem::ubName(o.failure.ub);
      case Kind::AssertFail:
        return "assert-fail";
      case Kind::ResourceExhausted:
        return "resource-exhausted";
      case Kind::Error:
        break;
    }
    return "error";
}

void
LayerCounters::add(const serve::Response &resp,
                   const driver::RunResult &oracle, size_t srcBytes)
{
    const mem::MemStats &ms = oracle.outcome.memStats;
    ++requests;
    cacheHits += resp.cached;
    if (!resp.cached) {
        srcBytesParsed += srcBytes;
        rewrites += oracle.optStats.foldedArith +
            oracle.optStats.elidedWrites + oracle.optStats.loopsRewritten;
    }
    steps += resp.steps;
    loads += resp.loads;
    stores += resp.stores;
    allocations += ms.allocations;
    tagInvalidations += ms.ghostTagInvalidations + ms.hardTagInvalidations;
    pagesAllocated += ms.store.pagesAllocated;
    placements += ms.heap.mallocCalls;
    reuses += ms.heap.reuses;
    sweeps += ms.revoke.sweeps;
    slotsVisited += ms.revoke.slotsVisited;
}

bool
countersAgree(const serve::Response &resp, const driver::RunResult &oracle)
{
    return resp.steps == oracle.outcome.steps &&
        resp.loads == oracle.outcome.memStats.loads &&
        resp.stores == oracle.outcome.memStats.stores;
}

TracedClient::TracedClient(SpanRecorder *spans)
    : spans_(spans), lRequest_(spans->layer("request")),
      lProtocol_(spans->layer("serve.protocol")),
      lRunNow_(spans->layer("serve.runNow")),
      lParse_(spans->layer("frontend.parse")),
      lSema_(spans->layer("sema.analyze")),
      lOptimize_(spans->layer("optimize")),
      lCompile_(spans->layer("compile")), lEval_(spans->layer("eval"))
{
}

serve::Response
TracedClient::run(serve::Server &server, const std::string &line,
                  uint64_t requestId)
{
    SpanRecorder *spans = spans_;
    ScopedSpan root(spans, lRequest_, requestId);
    serve::Request req;
    std::string err;
    bool parsed;
    {
        ScopedSpan s(spans, lProtocol_, requestId, root.index());
        parsed = serve::parseRequest(line, &req, &err);
    }
    serve::Response resp;
    if (!parsed) {
        resp.verdict = "bad-request";
        resp.message = err;
        return resp;
    }
    int64_t t0 = nowNs();
    resp = server.runNow(req);
    uint32_t run = spans->add(lRunNow_, requestId, root.index(), t0, nowNs());
    const obs::PhaseTimings &ph = resp.phases;
    int64_t at = t0;
    for (auto [layer, ns] : {std::pair{lParse_, ph.parseNs},
                             {lSema_, ph.semaNs},
                             {lOptimize_, ph.optimizeNs},
                             {lCompile_, ph.compileNs},
                             {lEval_, ph.evalNs}}) {
        if (!ns)
            continue;
        spans->add(layer, requestId, run, at, at + static_cast<int64_t>(ns));
        at += static_cast<int64_t>(ns);
    }
    {
        ScopedSpan s(spans, lProtocol_, requestId, root.index());
        std::string rendered = resp.render();
        asm volatile("" : : "r"(rendered.data()) : "memory");
    }
    return resp;
}

void
reportLayers(const SpanRecorder &spans, const LayerCounters &c, Result *r)
{
    std::map<std::string, LayerTime> byName = spans.layerTimes();
    double reqs = c.requests ? static_cast<double>(c.requests) : 1.0;
    auto selfUs = [&](const char *layer) {
        auto it = byName.find(layer);
        return it == byName.end() ? 0.0 : it->second.selfNs / 1e3 / reqs;
    };
    auto totalS = [&](const char *layer) {
        auto it = byName.find(layer);
        return it == byName.end() ? 0.0 : it->second.totalNs / 1e9;
    };
    auto &m = r->metrics;
    m["frontend.parse_us_per_req"] = selfUs("frontend.parse");
    m["frontend.src_bytes_per_s"] = totalS("frontend.parse") > 0
        ? c.srcBytesParsed / totalS("frontend.parse")
        : 0.0;
    m["sema.analyze_us_per_req"] = selfUs("sema.analyze");
    m["optimize.us_per_req"] = selfUs("optimize");
    m["optimize.rewrites"] = c.rewrites / reqs;
    m["compile.us_per_req"] = selfUs("compile");
    m["eval.us_per_req"] = selfUs("eval");
    m["eval.steps"] = c.steps / reqs;
    m["eval.steps_per_s"] =
        totalS("eval") > 0 ? c.steps / totalS("eval") : 0.0;
    m["mem.loads"] = c.loads / reqs;
    m["mem.stores"] = c.stores / reqs;
    m["mem.allocations"] = c.allocations / reqs;
    m["mem.tag_invalidations"] = c.tagInvalidations / reqs;
    m["store.pages_allocated"] = c.pagesAllocated / reqs;
    m["heap.placements"] = c.placements / reqs;
    m["heap.reuse_ratio"] =
        c.placements ? static_cast<double>(c.reuses) / c.placements : 0.0;
    m["revoke.sweeps"] = c.sweeps / reqs;
    m["revoke.slots_visited"] = c.slotsVisited / reqs;
    m["serve.cache_hit_ratio"] = c.cacheHits / reqs;
    m["serve.protocol_us_per_req"] = selfUs("serve.protocol");

    // Share of the request spans' time that the layer spans cover;
    // serve.runNow's own time is the serve layer's (cache lookup,
    // digest, response building).
    int64_t rootNs = 0, layerNs = 0;
    for (const auto &[name, lt] : byName) {
        if (name == "request")
            rootNs += lt.totalNs;
        else
            layerNs += lt.selfNs;
    }
    m["trace.coverage_ratio"] =
        rootNs ? static_cast<double>(layerNs) / rootNs : 0.0;
    r->note("serve.runNow own time: " +
            std::to_string(selfUs("serve.runNow")) + " us per request");
}

std::string
renderRun(const std::string &id, const std::string &source,
          const std::string &profile, bool traceDigest)
{
    serve::Request req;
    req.id = id;
    req.source = source;
    req.profile = profile;
    req.traceDigest = traceDigest;
    return serve::renderRequest(req);
}

serve::Response
serveLine(serve::Server &server, const std::string &line)
{
    serve::Request req;
    std::string err;
    if (!serve::parseRequest(line, &req, &err)) {
        serve::Response bad;
        bad.verdict = "bad-request";
        bad.message = err;
        return bad;
    }
    serve::Response resp = server.runNow(req);
    std::string rendered = resp.render();
    asm volatile("" : : "r"(rendered.data()) : "memory");
    return resp;
}

void
shuffledOrder(uint64_t seed, uint64_t pass, std::vector<size_t> *order)
{
    for (size_t i = 0; i < order->size(); ++i)
        (*order)[i] = i;
    std::mt19937_64 rng(seed * 1000003 + pass);
    std::shuffle(order->begin(), order->end(), rng);
}

void
reportClosedLoop(const std::vector<double> &latMs,
                 std::optional<double> tailP, Result *r)
{
    double busyMs = 0;
    for (double v : latMs)
        busyMs += v;
    double tail = tailP ? *tailP : tailPercentile(latMs.size()).value_or(50);
    r->metrics["verdicts_per_s"] = latMs.size() / (busyMs / 1e3);
    r->metrics["latency_p50_ms"] = percentile(latMs, 50);
    r->metrics["latency_tail_ms"] = percentile(latMs, tail);
    r->note("latency_tail_ms is the " + percentileName(tail) + " of " +
            std::to_string(latMs.size()) + " samples");
}

} // namespace bench
