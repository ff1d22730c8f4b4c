/**
 * @file
 * cherisem_bench: run one workload and print its metrics.
 *
 *   cherisem_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--root DIR] [--bench-dir DIR] [--trace-file PATH]
 *
 * Workloads: suite_cold, eval_kernels.  With --trace 0 the timed
 * phase runs untraced and the end-to-end metrics are reported: set-up
 * runs kSetupRepeats times, spread evenly over the run, and setup_s
 * is the median of their quietest tenth, the rule of every other
 * time metric (stats.h).  With --trace 1 the traced run reports the
 * per-layer metrics (with its companion's, see kCompanions) and
 * writes its spans to --trace-file.  Every verdict is checked; the
 * last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.  Exit status 0
 * means every verdict was correct.
 */
#include <cstdio>
#include <malloc.h>
#include <exception>
#include <functional>
#include <map>

#include "common.h"
#include "stats.h"

namespace {

using namespace bench;

/** Set-ups per untraced run.  The first precedes the timed phase;
 *  the others build fresh state between its passes, spread evenly,
 *  so that they sample the whole run rather than the host's state in
 *  its first few seconds.  Thirty keep three in the quietest tenth,
 *  whose median is the second fastest. */
constexpr size_t kSetupRepeats = 30;
/** Requests written to the Chrome trace (the spans of all requests
 *  still feed the per-layer metrics). */
constexpr uint64_t kTraceFileRequests = 2000;

const std::map<std::string,
               std::function<std::unique_ptr<Workload>(const Options &)>>
    kWorkloads = {
        {"suite_cold", makeSuiteCold},
        {"eval_kernels", makeEvalKernels},
};

/** serve_mixed and fuzz_campaign are too noisy on a shared host to
 *  gate end to end (see STEADINESS.md), so they have no timed phase.
 *  Their layers are still measured: a traced run of a gated workload
 *  also runs its companion's traced run, sized for kCompanionSeconds,
 *  and reports the companion's metrics of that layer. */
struct Companion
{
    const char *workload;
    std::unique_ptr<TracedWorkload> (*make)(const Options &);
    const char *layerPrefix;
};
const std::map<std::string, Companion> kCompanions = {
    {"suite_cold", {"serve_mixed", makeServeMixed, "serve."}},
    {"eval_kernels", {"fuzz_campaign", makeFuzzCampaign, "fuzz."}},
};
constexpr double kCompanionSeconds = 20;

/** The companion's traced run: its checks count in @p r, and its
 *  metrics under the companion's layer prefix replace @p r's. */
void
runCompanion(const Options &o, const Companion &c, Result *r)
{
    Options co = o;
    co.workload = c.workload;
    co.seconds = kCompanionSeconds;
    Result cr;
    std::unique_ptr<TracedWorkload> w = c.make(co);
    w->setup(&cr);
    SpanRecorder spans;
    w->runTraced(&cr, &spans);
    r->attempted += cr.attempted;
    r->failed += cr.failed;
    r->failures.insert(r->failures.end(), cr.failures.begin(),
                       cr.failures.end());
    for (const std::string &n : cr.notes)
        r->note(std::string(c.workload) + ": " + n);
    for (const auto &[name, value] : cr.metrics)
        if (name.rfind(c.layerPrefix, 0) == 0)
            r->metrics[name] = value;
}

/** This process's peak resident set (VmHWM).  getrusage's ru_maxrss
 *  is not used: it keeps the parent's peak across fork and exec. */
double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o->workload = v;
            else if (a == "--seed")
                o->seed = std::stoull(v);
            else if (a == "--seconds")
                o->seconds = std::stod(v);
            else if (a == "--trace")
                o->trace = v == "1";
            else if (a == "--root")
                o->root = v;
            else if (a == "--bench-dir")
                o->benchDir = v;
            else if (a == "--trace-file")
                o->traceFile = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return kWorkloads.count(o->workload) && o->seconds > 0;
}

void
printReport(const Result &r, const std::vector<MetricDef> &defs)
{
    for (const std::string &n : r.notes)
        std::printf("# %s\n", n.c_str());
    for (const std::string &f : r.failures)
        std::printf("FAILED %s\n", f.c_str());
    for (const MetricDef &d : defs)
        std::printf("%-28s %16.6f %-6s %s\n", d.name, r.metrics.at(d.name),
                    d.unit, d.help);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char *sep = "";
    for (const MetricDef &d : defs) {
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep,
                    d.name, r.metrics.at(d.name), d.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

/** A fresh workload, set up; appends the set-up's seconds to
 *  @p setupS. */
std::unique_ptr<Workload>
setUp(const Options &o, Result *r, std::vector<double> *setupS)
{
    std::unique_ptr<Workload> w = kWorkloads.at(o.workload)(o);
    int64_t t0 = nowNs();
    w->setup(r);
    setupS->push_back((nowNs() - t0) / 1e9);
    return w;
}

int
runBench(const Options &o)
{
    Result r;
    std::vector<double> setupS;
    std::unique_ptr<Workload> w = setUp(o, &r, &setupS);

    const std::vector<MetricDef> *defs;
    if (o.trace) {
        SpanRecorder spans;
        w->runTraced(&r, &spans);
        auto companion = kCompanions.find(o.workload);
        if (companion != kCompanions.end())
            runCompanion(o, companion->second, &r);
        defs = &perLayerMetrics();
        if (!o.traceFile.empty() &&
            !spans.writeChromeTrace(o.traceFile, kTraceFileRequests))
            std::fprintf(stderr, "cannot write %s\n", o.traceFile.c_str());
        for (const auto &[name, lt] : spans.layerTimes())
            r.note("span " + lt.layer + ": " + std::to_string(lt.spans) +
                   " spans, self " + std::to_string(lt.selfNs / 1e6) +
                   " ms of " + std::to_string(lt.totalNs / 1e6) + " ms");
    } else {
        size_t passes = w->passes();
        for (size_t pass = 0; pass < passes; ++pass) {
            w->runPass(pass, &r);
            // The other kSetupRepeats - 1 set-ups, one at the end of
            // each equal stretch of the timed phase; each one's state
            // is freed at once.  The heap is trimmed first so that the
            // peak resident set, reached during one of these set-ups,
            // does not depend on how the seed's request order left the
            // heap fragmented (3.5% between seeds without the trim).
            size_t due = 1 + (pass + 1) * (kSetupRepeats - 1) / passes;
            while (setupS.size() < due) {
                malloc_trim(0);
                setUp(o, &r, &setupS);
            }
        }
        w->report(&r);
        r.metrics["setup_s"] = median(quietest({setupS}));
        r.metrics["peak_rss_mib"] = peakRssMib();
        std::string each;
        for (double s : setupS)
            each += " " + std::to_string(s);
        r.note("set-ups (s):" + each);
        defs = &endToEndMetrics();
    }
    // A layer this workload does not pass through reports 0.
    for (const MetricDef &d : *defs)
        r.metrics.emplace(d.name, 0.0);
    printReport(r, *defs);
    return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, &o)) {
        std::fprintf(stderr,
                     "usage: cherisem_bench --workload "
                     "suite_cold|eval_kernels "
                     "--seed N --seconds S --trace 0|1 [--root DIR] "
                     "[--bench-dir DIR] [--trace-file PATH]\n");
        return 2;
    }
    try {
        return runBench(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cherisem_bench: %s\n", e.what());
        return 3;
    }
}
