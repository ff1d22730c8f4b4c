/**
 * @file
 * serve_mixed: open-loop Poisson traffic from one generator thread
 * into a serve::Server with one worker.  Each request is an
 * NDJSON line parsed by the protocol and rendered back.  About 80%
 * of requests come from a hot set of programs (front-cache hits) and
 * 20% are unique sources (misses, inserts and evictions); about 25%
 * ask for a witness-trace digest.
 *
 * Why: the only workload with queueing, cache reads beside inserts
 * and evictions, and tracing on.  A parser change should show here
 * only through the misses.
 *
 * Not gated: its open-loop latencies spread too widely from run to
 * run on a shared host (see STEADINESS.md).  Only its traced run is
 * kept; it supplies the serve.* metrics of suite_cold's traced run.
 * It offers the high rate twice on one schedule, untraced then
 * traced, with latency timed from each request's due time, then
 * climbs a rate ladder for serve.max_rps.
 */
#include <algorithm>
#include <random>

#include "common.h"
#include "driver/interpreter.h"
#include "driver/suite.h"
#include "openloop.h"
#include "serve/exec.h"
#include "serve/server.h"
#include "stats.h"

namespace bench {

using namespace cherisem;

namespace {

const char *const kProfiles[] = {"cerberus", "cerberus-cheriot",
                                 "cheriot-temporal-quarantine",
                                 "clang-morello-O2"};

/** One worker.  With two, the spread of the open-loop metrics from
 *  run to run on a shared 4-core VM was above 0.2: each extra busy
 *  thread adds cross-core wakeups and host preemptions to every
 *  request.  One worker still serves hits beside misses, inserts and
 *  evictions through the same queue and cache. */
constexpr unsigned kWorkers = 1;
/** Offered rate: about 20% of one worker's saturated capacity on
 *  this mix on a 4-core Xeon, so that the tail measures queueing and
 *  service rather than an overloaded host. */
constexpr double kHighRate = 5000; ///< requests/s
/** Traced requests: kHighBlock / 2 per second of run length. */
constexpr double kBlocksPerSecond = 1;
constexpr size_t kHighBlock = 2000;
constexpr size_t kHotPrograms = 64;
constexpr double kHotShare = 0.8;
constexpr double kDigestShare = 0.25;
constexpr size_t kCacheCapacity = 256;
/** serve.max_rps: the p99 latency limit and the rate ladder. */
constexpr double kP99LimitMs = 25;
const double kLadder[] = {1000,  2000,  5000,  8000,  12000,
                          16000, 20000, 25000, 30000, 40000};
constexpr size_t kLadderRequests = 3000;

/** The oracle for one (program, profile) pair. */
struct Oracle
{
    std::string source;
    std::string profile;
    std::string what;
    /** The runSource outcome a response must reproduce. */
    corelang::Outcome expect;
    std::string digest;
};

/** One request of a phase, and what became of it. */
struct Slot
{
    uint32_t oracle = 0;
    /** Index into the hot lines, or kUnique. */
    uint32_t hotLine = 0;
    bool digest = false;
    // Filled by the generator and the completion callback.
    int64_t parsedNs = 0;
    int64_t submittedNs = 0;
    int64_t callbackNs = 0;
    int64_t doneNs = 0;
    uint64_t queueNs = 0;
    uint64_t totalNs = 0;
    bool accepted = false;
    bool cached = false;
    bool ok = false;
    std::string failure;

    static constexpr uint32_t kUnique = UINT32_MAX;
};

struct PhaseResult
{
    std::vector<double> latMs;
    std::vector<double> latenessMs;
    int64_t lastDueNs = 0;
    int64_t endNs = 0;
};

class ServeMixed : public TracedWorkload
{
  public:
    explicit ServeMixed(const Options &o) : opts_(o) {}

    void
    setup(Result *r) override
    {
        for (const driver::SuiteTest &t :
             driver::loadSuite(opts_.root + "/tests/suite")) {
            for (const char *p : kProfiles) {
                Oracle o;
                o.source = t.source;
                o.profile = p;
                o.what = t.name + " [" + p + "]";
                oracles_.push_back(std::move(o));
            }
        }
        // The oracle: runSource for the verdict and counters, and an
        // uncached serve run for the witness digest.
        serve::ExecLimits limits;
        serve::RunSpec spec;
        spec.traceDigest = true;
        for (Oracle &o : oracles_) {
            const driver::Profile *profile = driver::findProfile(o.profile);
            driver::RunResult rr = driver::runSource(o.source, *profile);
            serve::ExecResult er =
                serve::runRequest(o.source, *profile, spec, limits, nullptr);
            char buf[32];
            std::snprintf(buf, sizeof buf, "fnv1a:%016llx",
                          static_cast<unsigned long long>(er.digest));
            o.digest = buf;
            o.expect = rr.outcome;
            r->check(!rr.frontendError && !er.frontendError &&
                         er.outcome.summary() == rr.outcome.summary(),
                     o.what + " (oracle)");
        }

        // The hot set is fixed, every (size/64)-th program, so that
        // the seed changes which requests arrive when but not how much
        // work the hot set holds.  Pre-rendered without and with
        // trace_digest.
        size_t stride = oracles_.size() / kHotPrograms;
        for (size_t h = 0; h < kHotPrograms; ++h) {
            uint32_t index = static_cast<uint32_t>(h * stride);
            const Oracle &o = oracles_[index];
            hot_.push_back(index);
            hotLines_.push_back(renderRun("h", o.source, o.profile, false));
            hotLines_.push_back(renderRun("h", o.source, o.profile, true));
        }

        serve::ServerOptions so;
        so.threads = kWorkers;
        so.cacheCapacity = kCacheCapacity;
        server_ = std::make_unique<serve::Server>(so);

        // Warm-up: the hot set into the front cache, checked.
        std::vector<Slot> warm = makeSlots(kHotPrograms * 4, 1.0, 0);
        runPhase(&warm, std::vector<int64_t>(warm.size(), 0), nullptr);
        checkSlots(warm, r);
    }

    void
    runTraced(Result *r, SpanRecorder *spans) override
    {
        // The high-rate phase twice on one schedule, untraced then
        // traced, then the rate ladder.
        size_t n = workUnits(opts_, kBlocksPerSecond, 3) * kHighBlock / 2;
        std::vector<int64_t> due =
            poissonSchedule(kHighRate, n, opts_.seed * 31 + 4);
        std::vector<Slot> plain = makeSlots(n, kHotShare, 4);
        PhaseResult untraced = runPhase(&plain, due, nullptr);
        checkSlots(plain, r);
        std::vector<Slot> traced = makeSlots(n, kHotShare, 4);
        PhaseResult tr = runPhase(&traced, due, spans);
        checkSlots(traced, r);

        std::vector<double> queueMs, serviceMs;
        uint64_t hits = 0;
        for (const Slot &s : traced) {
            queueMs.push_back(s.queueNs / 1e6);
            serviceMs.push_back((s.totalNs - s.queueNs) / 1e6);
            hits += s.cached;
        }
        std::map<std::string, LayerTime> byName = spans->layerTimes();
        auto &m = r->metrics;
        m["serve.queue_wait_p50_ms"] = percentile(queueMs, 50);
        m["serve.queue_wait_p99_ms"] = percentile(queueMs, 99);
        m["serve.service_p50_ms"] = percentile(serviceMs, 50);
        m["serve.cache_hit_ratio"] = static_cast<double>(hits) / n;
        m["serve.protocol_us_per_req"] =
            byName["serve.protocol"].selfNs / 1e3 / n;
        m["serve.gen_lateness_p99_ms"] = percentile(tr.latenessMs, 99);
        m["trace.overhead_ratio"] =
            percentile(tr.latMs, 50) / percentile(untraced.latMs, 50);
        int64_t layerNs = 0;
        for (const auto &[name, lt] : byName)
            if (name != "request")
                layerNs += lt.selfNs;
        m["trace.coverage_ratio"] =
            static_cast<double>(layerNs) / byName["request"].totalNs;

        double maxRps = 0;
        for (size_t k = 0; k < std::size(kLadder); ++k) {
            double rate = kLadder[k];
            PhaseResult rung = offer(rate, kLadderRequests, 10 + k, r);
            double p99 = percentile(rung.latMs, 99);
            // No growing backlog: the last response may come at most
            // the latency limit after the last request fell due.
            double overrunMs = (rung.endNs - rung.lastDueNs) / 1e6;
            bool ok = p99 <= kP99LimitMs && overrunMs <= kP99LimitMs;
            r->note("ladder " + fmt(rate) + "/s: p99 " + fmt(p99) +
                    " ms, overrun " + fmt(overrunMs) + " ms" +
                    (ok ? "" : " (limit missed)"));
            if (!ok)
                break;
            maxRps = rate;
        }
        m["serve.max_rps"] = maxRps;
    }

  private:
    static std::string
    fmt(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", v);
        return buf;
    }

    /** @p n requests: a hot-set program with probability @p hotShare,
     *  else a unique source.  Which requests make up stream @p stream
     *  is the same for every seed; the seed only shuffles their order,
     *  so a seed changes the arrival order and times but never the
     *  work (a rare costly request, such as a digest of a long witness
     *  stream, is in every seed's mix or in none). */
    std::vector<Slot>
    makeSlots(size_t n, double hotShare, uint64_t stream) const
    {
        std::mt19937_64 rng(stream);
        std::uniform_real_distribution<double> u(0, 1);
        std::vector<Slot> slots(n);
        for (Slot &s : slots) {
            bool unique = u(rng) >= hotShare;
            s.digest = u(rng) < kDigestShare;
            if (unique) {
                s.oracle = static_cast<uint32_t>(rng() % oracles_.size());
                s.hotLine = Slot::kUnique;
            } else {
                size_t h = rng() % hot_.size();
                s.oracle = hot_[h];
                s.hotLine = static_cast<uint32_t>(2 * h + s.digest);
            }
        }
        std::mt19937_64 order(opts_.seed * 7919 + stream);
        std::shuffle(slots.begin(), slots.end(), order);
        return slots;
    }

    /** Offer @p n requests of stream @p stream at Poisson @p rate. */
    PhaseResult
    offer(double rate, size_t n, uint64_t stream, Result *r)
    {
        std::vector<Slot> slots = makeSlots(n, kHotShare, stream);
        PhaseResult res = runPhase(
            &slots, poissonSchedule(rate, n, opts_.seed * 31 + stream),
            nullptr);
        checkSlots(slots, r);
        return res;
    }

    /** Send every slot at its due offset and wait for all responses;
     *  each response is checked against the oracle on the worker
     *  that produced it.  With @p spans, the request's boundaries
     *  become spans. */
    PhaseResult
    runPhase(std::vector<Slot> *slots, const std::vector<int64_t> &due,
             SpanRecorder *spans)
    {
        std::vector<int64_t> sent;
        std::string uniqueLine;
        const std::string *line = nullptr;
        int64_t t0 = nowNs() + 1'000'000;
        auto prepare = [&](size_t i) {
            const Slot &s = (*slots)[i];
            if (s.hotLine != Slot::kUnique) {
                line = &hotLines_[s.hotLine];
                return;
            }
            // A unique source: the program plus a distinct comment, so
            // it misses the front cache but keeps its oracle.
            const Oracle &o = oracles_[s.oracle];
            uniqueLine = renderRun(
                "u", o.source + "\n// unique " + std::to_string(nextUnique_++),
                o.profile, s.digest);
            line = &uniqueLine;
        };
        auto send = [&](size_t i) {
            Slot &s = (*slots)[i];
            serve::Request req;
            std::string err;
            bool ok = serve::parseRequest(*line, &req, &err);
            s.parsedNs = nowNs();
            if (ok) {
                const Oracle *o = &oracles_[s.oracle];
                s.accepted = server_->submit(
                    std::move(req), [&s, o](serve::Response resp) {
                        s.callbackNs = nowNs();
                        std::string rendered = resp.render();
                        asm volatile("" : : "r"(rendered.data()) : "memory");
                        s.doneNs = nowNs();
                        check(*o, resp, &s);
                    });
            }
            s.submittedNs = nowNs();
        };
        runOpenLoop(due, t0, &sent, prepare, send);
        server_->drain();

        PhaseResult res;
        res.endNs = t0;
        res.lastDueNs = t0 + (due.empty() ? 0 : due.back());
        for (size_t i = 0; i < slots->size(); ++i) {
            const Slot &s = (*slots)[i];
            int64_t dueNs = t0 + due[i];
            // A refused request misses any latency limit.
            res.latMs.push_back(
                s.accepted ? sinceDueMs(due, t0, i, s.doneNs) : 1e9);
            res.latenessMs.push_back(sinceDueMs(due, t0, i, sent[i]));
            res.endNs = std::max(res.endNs, s.doneNs);
            if (spans)
                recordSpans(spans, i, dueNs, sent[i], s);
        }
        return res;
    }

    /** Compare @p resp with the oracle; runs on the worker. */
    static void
    check(const Oracle &o, const serve::Response &resp, Slot *s)
    {
        const corelang::Outcome &want = o.expect;
        s->queueNs = resp.queueNs;
        s->totalNs = resp.totalNs;
        s->cached = resp.cached;
        s->ok = responseMatches(resp, expectationOf(want)) &&
            resp.steps == want.steps &&
            resp.loads == want.memStats.loads &&
            resp.stores == want.memStats.stores &&
            resp.output == want.output &&
            resp.traceDigest == (s->digest ? o.digest : "");
        if (!s->ok)
            s->failure = o.what + (s->hotLine == Slot::kUnique ? " (miss)"
                                                                : " (hit)") +
                ": got " + resp.verdict + " " + resp.traceDigest;
    }

    void
    checkSlots(const std::vector<Slot> &slots, Result *r) const
    {
        for (const Slot &s : slots)
            r->check(s.accepted && s.ok,
                     s.accepted ? s.failure
                                : oracles_[s.oracle].what + " (refused)");
    }

    static void
    recordSpans(SpanRecorder *spans, uint64_t i, int64_t dueNs,
                int64_t sentNs, const Slot &s)
    {
        uint32_t root = spans->add(spans->layer("request"), i,
                                   Span::kNoParent, dueNs, s.doneNs);
        spans->add(spans->layer("serve.gen_lateness"), i, root, dueNs, sentNs);
        uint32_t proto = spans->layer("serve.protocol");
        spans->add(proto, i, root, sentNs, s.parsedNs);
        spans->add(spans->layer("serve.submit"), i, root, s.parsedNs,
                   s.submittedNs);
        // Queue wait and execution as the server accounted them,
        // placed backwards from the callback; the queue span is
        // clamped to start after submit() returned so that siblings
        // stay disjoint.
        int64_t execStart =
            s.callbackNs - static_cast<int64_t>(s.totalNs - s.queueNs);
        int64_t qStart = std::max(
            s.submittedNs, execStart - static_cast<int64_t>(s.queueNs));
        int64_t qEnd = std::max(qStart, execStart);
        spans->add(spans->layer("serve.queue"), i, root, qStart, qEnd);
        spans->add(spans->layer("serve.execute"), i, root, qEnd, s.callbackNs);
        spans->add(proto, i, root, s.callbackNs, s.doneNs);
    }

    Options opts_;
    std::vector<Oracle> oracles_;
    std::vector<uint32_t> hot_;
    std::vector<std::string> hotLines_;
    uint64_t nextUnique_ = 0;
    std::unique_ptr<serve::Server> server_;
};

} // namespace

std::unique_ptr<TracedWorkload>
makeServeMixed(const Options &o)
{
    return std::make_unique<ServeMixed>(o);
}

} // namespace bench
