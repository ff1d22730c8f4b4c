/**
 * @file
 * fuzz_campaign: a window of the UB-free generator corpus through
 * fuzz::runCase with the default axes (all profiles, cross-profile,
 * engine, allocator, Map-vs-Paged), on one thread.
 *
 * Why: the only workload that runs the MapStore oracle, all sixteen
 * profiles, every revocation policy and the per-run ring sinks.  A
 * removed differential axis or a faster kernel shows here.
 *
 * The window is a run of consecutive corpus seeds whose start is
 * drawn from the workload seed inside seeds 0..2999 (the campaign
 * range checked clean, zero hard failures).  Per-seed cost has a
 * coefficient of variation of about 0.29, so two windows of N seeds
 * differ by about 0.29 * sqrt(2 / N) in mean cost: N = 2 seeds per
 * second of run length keeps that under 10% for runs of 10 s or more
 * and near 6.5% at 20 s.
 *
 * Not gated: one runCase takes ~70 ms on a 4-core Xeon, too long a
 * unit to find quiet moments of the host in (see STEADINESS.md).
 * Only its traced run is kept; it supplies the fuzz.* metrics of
 * eval_kernels' traced run, over the whole window.
 */
#include <random>

#include "common.h"
#include "fuzz/diff_runner.h"
#include "fuzz/generator.h"
#include "stats.h"

namespace bench {

using namespace cherisem;

namespace {

constexpr uint64_t kCorpusSeeds = 3000;
constexpr double kSeedsPerSecond = 2;
constexpr size_t kWarmupSeeds = 2;

class FuzzCampaign : public TracedWorkload
{
  public:
    explicit FuzzCampaign(const Options &o) : opts_(o)
    {
        runner_.requireExit = true;
    }

    void
    setup(Result *r) override
    {
        size_t n = std::min<size_t>(workUnits(opts_, kSeedsPerSecond, 8),
                                    kCorpusSeeds);
        std::mt19937_64 rng(opts_.seed);
        uint64_t first = rng() % (kCorpusSeeds - n + 1);
        for (uint64_t s = first; s < first + n; ++s) {
            fuzz::GenOptions gen;
            gen.seed = s;
            seeds_.push_back(s);
            sources_.push_back(fuzz::generateProgram(gen));
        }
        r->note("corpus seeds " + std::to_string(first) + ".." +
                std::to_string(first + n - 1));
        for (size_t i = 0; i < kWarmupSeeds; ++i)
            checkSeed(i, r);
    }

    void
    runTraced(Result *r, SpanRecorder *spans) override
    {
        uint32_t lSeed = spans->layer("fuzz.seed");
        uint32_t lGen = spans->layer("fuzz.generate");
        uint32_t lRun = spans->layer("fuzz.runcase");
        size_t n = seeds_.size();
        int64_t untracedNs = 0, tracedNs = 0;
        uint64_t expected = 0, hard = 0;
        for (size_t i = 0; i < n; ++i) {
            int64_t t0 = nowNs();
            checkSeed(i, r);
            int64_t t1 = nowNs();
            {
                ScopedSpan root(spans, lSeed, i);
                std::string src;
                {
                    ScopedSpan s(spans, lGen, i, root.index());
                    fuzz::GenOptions gen;
                    gen.seed = seeds_[i];
                    src = fuzz::generateProgram(gen);
                }
                std::vector<fuzz::Divergence> divs;
                {
                    ScopedSpan s(spans, lRun, i, root.index());
                    divs = fuzz::runCase(seeds_[i], src, runner_);
                }
                uint64_t h = 0;
                for (const fuzz::Divergence &d : divs) {
                    h += fuzz::isHardFailure(d);
                    expected += d.expected;
                }
                hard += h;
                r->check(h == 0 && src == sources_[i],
                         "seed " + std::to_string(seeds_[i]));
            }
            untracedNs += t1 - t0;
            tracedNs += nowNs() - t1;
        }
        std::map<std::string, LayerTime> byName = spans->layerTimes();
        auto &m = r->metrics;
        m["fuzz.generate_us_per_seed"] = byName["fuzz.generate"].selfNs / 1e3 / n;
        m["fuzz.runcase_ms_per_seed"] = byName["fuzz.runcase"].selfNs / 1e6 / n;
        m["fuzz.hard_failures"] = static_cast<double>(hard);
        m["fuzz.expected_divergences"] = static_cast<double>(expected);
        m["trace.coverage_ratio"] =
            static_cast<double>(byName["fuzz.generate"].selfNs +
                                byName["fuzz.runcase"].selfNs) /
            byName["fuzz.seed"].totalNs;
        m["trace.overhead_ratio"] = static_cast<double>(tracedNs) / untracedNs;
    }

  private:
    void
    checkSeed(size_t i, Result *r)
    {
        std::vector<fuzz::Divergence> divs =
            fuzz::runCase(seeds_[i], sources_[i], runner_);
        std::string what = "seed " + std::to_string(seeds_[i]);
        bool ok = true;
        for (const fuzz::Divergence &d : divs) {
            if (fuzz::isHardFailure(d)) {
                ok = false;
                what += ": " + d.where + " " + d.detail;
                break;
            }
        }
        r->check(ok, what);
    }

    Options opts_;
    fuzz::RunnerOptions runner_;
    std::vector<uint64_t> seeds_;
    std::vector<std::string> sources_;
};

} // namespace

std::unique_ptr<TracedWorkload>
makeFuzzCampaign(const Options &o)
{
    return std::make_unique<FuzzCampaign>(o);
}

} // namespace bench
