/**
 * @file
 * eval_kernels: long-running MiniC kernels (the kernels directory) under three
 * profiles, compiled once in set-up and then served as front-cache
 * hits to one closed-loop client through a one-worker serve::Server.
 *
 * Why: eval dispatch, the memory model, the allocator and revocation
 * do over 95% of the work and the parser almost none, so a frontend
 * change should leave this workload unchanged.
 */
#include "common.h"
#include "driver/suite.h"
#include "obs/sinks.h"
#include "serve/server.h"
#include "stats.h"

namespace bench {

using namespace cherisem;

namespace {

const char *const kProfiles[] = {"cerberus", "clang-morello-O2",
                                 "cheriot-temporal-quarantine-slab"};

/** Rounds over the 21-request kernel grid per second of nominal run
 *  length (one round takes ~0.13 s on a 4-core Xeon). */
constexpr double kRoundsPerSecond = 6;
constexpr int kWarmupRounds = 3;

/** The serve layer's witness ring size (serve/exec.cc). */
constexpr size_t kRingCapacity = 1 << 17;
/** Runs of each kernel with and without the ring, for
 *  obs.trace_overhead_ratio. */
constexpr int kRingRepeats = 2;

struct Item
{
    std::string line;
    /** The same request with trace_digest on. */
    std::string digestLine;
    std::string source;
    std::string profile;
    std::string expect;
    std::string what;
};

class EvalKernels : public Workload
{
  public:
    explicit EvalKernels(const Options &o) : opts_(o) {}

    void
    setup(Result *r) override
    {
        std::vector<driver::SuiteTest> kernels =
            driver::loadSuite(opts_.benchDir + "/kernels");
        if (kernels.empty())
            throw std::runtime_error("no kernels under " + opts_.benchDir +
                                     "/kernels");
        for (const driver::SuiteTest &k : kernels) {
            for (const char *p : kProfiles) {
                Item it;
                it.line = renderRun("k" + std::to_string(items_.size()),
                                    k.source, p, false);
                it.digestLine = renderRun("d" + std::to_string(items_.size()),
                                          k.source, p, true);
                it.source = k.source;
                it.profile = p;
                it.expect = k.expectationFor(p);
                it.what = k.name + " [" + p + "]";
                items_.push_back(std::move(it));
            }
        }
        serve::ServerOptions so;
        so.threads = 1;
        so.cacheCapacity = 64;
        server_ = std::make_unique<serve::Server>(so);
        // Warm-up: compile every kernel into the front cache (a checked
        // miss), then serve it as a checked hit for a few rounds, so
        // that set-up averages over the host's blips.
        for (const Item &it : items_)
            r->check(responseMatches(serveLine(*server_, it.line), it.expect),
                     it.what);
        for (int round = 0; round < kWarmupRounds; ++round)
            for (const Item &it : items_)
                checkHit(serveLine(*server_, it.line), it, r);
    }

    size_t
    passes() const override
    {
        return workUnits(opts_, kRoundsPerSecond, 2);
    }

    void
    runPass(size_t round, Result *r) override
    {
        requestMs_.resize(items_.size());
        std::vector<size_t> order(items_.size());
        shuffledOrder(opts_.seed, round, &order);
        for (size_t i : order) {
            int64_t t0 = nowNs();
            serve::Response resp = serveLine(*server_, items_[i].line);
            requestMs_[i].push_back((nowNs() - t0) / 1e6);
            checkHit(resp, items_[i], r);
        }
    }

    void
    report(Result *r) override
    {
        reportClosedLoop(quietest(requestMs_), std::nullopt, r);
        r->note("each request's quietest tenth of " +
                std::to_string(requestMs_.at(0).size()) + " rounds");
        for (size_t i = 0; i < items_.size(); ++i)
            r->note(items_[i].what + ": median " +
                    std::to_string(median(requestMs_[i])) + " ms");
    }

    void
    runTraced(Result *r, SpanRecorder *spans) override
    {
        std::vector<driver::RunResult> oracle;
        for (const Item &it : items_)
            oracle.push_back(
                driver::runSource(it.source, *driver::findProfile(it.profile)));
        size_t rounds = std::max<size_t>(1, passes() / 4);
        TracedClient client(spans);
        LayerCounters counters;
        std::vector<size_t> order(items_.size());
        int64_t untracedNs = 0, tracedNs = 0;
        uint64_t reqId = 0;
        for (size_t round = 0; round < rounds; ++round) {
            shuffledOrder(opts_.seed, round, &order);
            int64_t t0 = nowNs();
            for (size_t i : order)
                checkHit(serveLine(*server_, items_[i].line), items_[i], r);
            int64_t t1 = nowNs();
            for (size_t i : order) {
                serve::Response resp =
                    client.run(*server_, items_[i].line, reqId++);
                checkHit(resp, items_[i], r);
                r->check(countersAgree(resp, oracle[i]),
                         items_[i].what + " (counters)");
                counters.add(resp, oracle[i], items_[i].source.size());
            }
            untracedNs += t1 - t0;
            tracedNs += nowNs() - t1;
        }
        reportLayers(*spans, counters, r);
        r->metrics["trace.overhead_ratio"] =
            static_cast<double>(tracedNs) / untracedNs;
        measureRingOverhead(r);
    }

  private:
    void
    checkHit(const serve::Response &resp, const Item &it, Result *r) const
    {
        r->check(resp.cached && responseMatches(resp, it.expect),
                 it.what + (resp.cached ? "" : " (front-cache miss)"));
    }

    /** Serve every kernel with and without trace_digest, which
     *  attaches the server's witness ring to the run, alternating;
     *  report the ratio of the server's eval phase times.  The event
     *  count comes from one corelang::evaluate per kernel with a ring
     *  of the same size. */
    void
    measureRingOverhead(Result *r)
    {
        uint64_t withNs = 0, withoutNs = 0;
        uint64_t events = 0;
        for (const Item &it : items_) {
            for (int rep = 0; rep < kRingRepeats; ++rep) {
                serve::Response plain = serveLine(*server_, it.line);
                serve::Response traced = serveLine(*server_, it.digestLine);
                withoutNs += plain.phases.evalNs;
                withNs += traced.phases.evalNs;
                checkHit(plain, it, r);
                checkHit(traced, it, r);
            }
            serve::CompiledPtr compiled = server_->cache().lookup(
                serve::FrontCache::key(it.source, it.profile));
            if (!compiled) {
                r->check(false, it.what + " (not cached for ring pass)");
                continue;
            }
            corelang::EvalOptions opts =
                driver::findProfile(it.profile)->evalOptions();
            obs::RingBufferSink ring(kRingCapacity);
            opts.memConfig.traceSink = &ring;
            corelang::Outcome o = corelang::evaluate(compiled->prog, opts);
            events += ring.size() + ring.dropped();
            r->check(driver::outcomeMatches(o, it.expect),
                     it.what + " (ring pass)");
        }
        r->metrics["obs.trace_overhead_ratio"] =
            withoutNs ? static_cast<double>(withNs) / withoutNs : 0.0;
        r->metrics["obs.events_per_req"] =
            static_cast<double>(events) / items_.size();
    }

    Options opts_;
    std::vector<Item> items_;
    std::unique_ptr<serve::Server> server_;
    /** requestMs_[i] holds every round's time for request i. */
    std::vector<std::vector<double>> requestMs_;
};

} // namespace

std::unique_ptr<Workload>
makeEvalKernels(const Options &o)
{
    return std::make_unique<EvalKernels>(o);
}

} // namespace bench
