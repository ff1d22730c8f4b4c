/**
 * @file
 * suite_cold: the tests/suite corpus under four profiles, sent as
 * NDJSON run requests by one closed-loop client through a
 * one-worker serve::Server whose front cache is off.
 *
 * Why: every request is cold, so the frontend, sema, optimizer and
 * bytecode compile do about 60% of the work while eval stays short.
 * This is the workload a parser or sema change should move.
 *
 * Each (file, profile) pair that the file pins with @EXPECT is
 * checked against it.  The other pairs have no pinned answer and are
 * checked against a driver::runSource oracle computed in set-up:
 * that catches a serve path that departs from runSource, not a
 * verdict change in the frontend or eval the two share (the same
 * file's pinned reference-profile pair catches most of those).
 */
#include <algorithm>

#include "common.h"
#include "driver/interpreter.h"
#include "driver/suite.h"
#include "serve/server.h"
#include "stats.h"

namespace bench {

using namespace cherisem;

namespace {

const char *const kProfiles[] = {"cerberus", "cerberus-cheriot",
                                 "cheriot-temporal-quarantine",
                                 "clang-morello-O2"};

/** Full passes over the 976-request grid per second of nominal run
 *  length (one pass takes ~75 ms on a 4-core Xeon). */
constexpr double kPassesPerSecond = 10;
constexpr int kWarmupPasses = 3;

struct Item
{
    std::string line;
    std::string source;
    std::string profile;
    std::string expect;
    std::string what;
};

class SuiteCold : public Workload
{
  public:
    explicit SuiteCold(const Options &o) : opts_(o) {}

    void
    setup(Result *r) override
    {
        size_t unpinned = 0;
        for (const driver::SuiteTest &t :
             driver::loadSuite(opts_.root + "/tests/suite")) {
            for (const char *p : kProfiles) {
                Item it;
                it.line = renderRun("r" + std::to_string(items_.size()),
                                    t.source, p, false);
                it.source = t.source;
                it.profile = p;
                // A pair the file pins is checked against its
                // @EXPECT; any other pair against runSource.
                bool pinned = p == driver::referenceProfile().name ||
                    t.expectations.count(p);
                unpinned += !pinned;
                it.expect = pinned
                    ? t.expectationFor(p)
                    : expectationOf(
                          driver::runSource(t.source, *driver::findProfile(p))
                              .outcome);
                it.what = t.name + " [" + p + "]";
                items_.push_back(std::move(it));
            }
        }
        r->note(std::to_string(items_.size() - unpinned) + " of " +
                std::to_string(items_.size()) +
                " requests checked against @EXPECT, " +
                std::to_string(unpinned) + " against runSource");
        serve::ServerOptions so;
        so.threads = 1;
        so.cacheCapacity = 0;
        server_ = std::make_unique<serve::Server>(so);
        // Warm-up: checked passes, enough that set-up spans a few
        // tenths of a second and so averages over the host's blips.
        for (int pass = 0; pass < kWarmupPasses; ++pass)
            for (const Item &it : items_)
                r->check(responseMatches(serveLine(*server_, it.line),
                                         it.expect),
                         it.what);
    }

    size_t
    passes() const override
    {
        return workUnits(opts_, kPassesPerSecond, 2);
    }

    void
    runPass(size_t pass, Result *r) override
    {
        requestMs_.resize(items_.size());
        std::vector<size_t> order(items_.size());
        shuffledOrder(opts_.seed, pass, &order);
        for (size_t i : order) {
            int64_t t0 = nowNs();
            serve::Response resp = serveLine(*server_, items_[i].line);
            requestMs_[i].push_back((nowNs() - t0) / 1e6);
            r->check(responseMatches(resp, items_[i].expect),
                     items_[i].what);
        }
    }

    void
    report(Result *r) override
    {
        reportClosedLoop(quietest(requestMs_), 99, r);
        r->note("each request's quietest tenth of " +
                std::to_string(requestMs_.at(0).size()) + " passes");
    }

    void
    runTraced(Result *r, SpanRecorder *spans) override
    {
        std::vector<driver::RunResult> oracle;
        for (const Item &it : items_)
            oracle.push_back(
                driver::runSource(it.source, *driver::findProfile(it.profile)));
        // Alternate untraced and traced passes so that the overhead
        // ratio compares like with like.
        size_t passes = std::max<size_t>(1, this->passes() / 4);
        TracedClient client(spans);
        LayerCounters counters;
        std::vector<size_t> order(items_.size());
        int64_t untracedNs = 0, tracedNs = 0;
        uint64_t reqId = 0;
        for (size_t pass = 0; pass < passes; ++pass) {
            shuffledOrder(opts_.seed, pass, &order);
            int64_t t0 = nowNs();
            for (size_t i : order)
                r->check(responseMatches(serveLine(*server_, items_[i].line),
                                         items_[i].expect),
                         items_[i].what);
            int64_t t1 = nowNs();
            for (size_t i : order) {
                serve::Response resp =
                    client.run(*server_, items_[i].line, reqId++);
                r->check(responseMatches(resp, items_[i].expect) &&
                             countersAgree(resp, oracle[i]),
                         items_[i].what + " (traced)");
                counters.add(resp, oracle[i], items_[i].source.size());
            }
            untracedNs += t1 - t0;
            tracedNs += nowNs() - t1;
        }
        reportLayers(*spans, counters, r);
        r->metrics["trace.overhead_ratio"] =
            static_cast<double>(tracedNs) / untracedNs;
    }

  private:
    Options opts_;
    std::vector<Item> items_;
    std::unique_ptr<serve::Server> server_;
    /** requestMs_[i] holds every pass's time for request i. */
    std::vector<std::vector<double>> requestMs_;
};

} // namespace

std::unique_ptr<Workload>
makeSuiteCold(const Options &o)
{
    return std::make_unique<SuiteCold>(o);
}

} // namespace bench
