/**
 * @file
 * End-to-end interpreter benchmarks: whole-pipeline cost of running
 * small CHERI C programs under the reference and hardware profiles,
 * including the optimisation-pass ablation.
 *
 * Like micro_memory, a fixed harness runs first and writes
 * BENCH_interp.json (a "results" array plus summary ratios) — here
 * the grid is workload x profile, each cell the minimum ns of one
 * whole runSource(), plus:
 *
 *  - the witness-tracing overhead ratio (traced-into-a-ring vs
 *    untraced);
 *  - "deep_global": a 20k-iteration global-increment loop run at
 *    call depth 1, 100 and 400, evaluation only.  Sema resolves every
 *    identifier to a frame slot or a global index, so reaching a
 *    global costs the same at any depth; the summary ratio
 *    deep_global_ratio_400_vs_1 (eval at depth 400 / eval at depth 1,
 *    taken within one run) is what CI gates;
 *  - "dead_allocs": a 4000-iteration `p = &v; t += *p;` loop run
 *    after 0 and after 16k calls of a one-local function, i.e. after
 *    that many dead allocations, on cerberus and clang-morello-O0.
 *    The loop is timed alone: eval of the program minus eval of the
 *    same program with a zero-trip loop.  Dead allocations are out of
 *    the live address index, so the loop costs the same either way;
 *    each profile's ratio_16k_vs_0 (taken within one run) is what CI
 *    gates.
 *
 * Every figure is a minimum over repeated runs (minTimesNs).
 *
 * Pass --no-json to skip it.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "frontend/parser.h"
#include "obs/sinks.h"
#include "sema/sema.h"

namespace {

using namespace cherisem::driver;

const char *ARITH_LOOP = R"(
int main(void) {
    int acc = 0;
    for (int i = 0; i < 1000; i++) acc += i;
    return acc & 0xff;
}
)";

const char *POINTER_CHASE = R"(
struct node { int value; struct node *next; };
int main(void) {
    struct node nodes[32];
    for (int i = 0; i < 31; i++) {
        nodes[i].value = i;
        nodes[i].next = &nodes[i + 1];
    }
    nodes[31].value = 31;
    nodes[31].next = 0;
    int sum = 0;
    for (int r = 0; r < 20; r++)
        for (struct node *n = &nodes[0]; n; n = n->next)
            sum += n->value;
    return sum & 0xff;
}
)";

const char *INTPTR_HEAVY = R"(
#include <stdint.h>
int main(void) {
    int a[64];
    uintptr_t base = (uintptr_t)a;
    for (int i = 0; i < 64; i++) {
        int *p = (int*)(base + i * sizeof(int));
        *p = i;
    }
    int sum = 0;
    for (int i = 0; i < 64; i++) sum += a[i];
    return sum & 0xff;
}
)";

const char *MALLOC_CHURN = R"(
#include <stdlib.h>
#include <string.h>
int main(void) {
    int total = 0;
    for (int r = 0; r < 50; r++) {
        char *p = malloc(64);
        memset(p, r, 64);
        total += p[13];
        free(p);
    }
    return total & 0xff;
}
)";

// ---------------------------------------------------------------------
// BENCH_interp.json: fixed workload x profile grid.
// ---------------------------------------------------------------------

/** Minimum wall-clock ns of each of @p ops.  After one warm-up each,
 *  the ops run interleaved, one round at a time, until @p max_rounds
 *  or ~0.3 s per op, so drift on a shared machine hits them alike.
 *  Minimum, not mean: the noise floor on a shared machine is
 *  one-sided. */
std::vector<double>
minTimesNs(const std::vector<std::function<void()>> &ops, int max_rounds)
{
    using clock = std::chrono::steady_clock;
    for (const auto &op : ops)
        op(); // warm-up
    std::vector<double> best(ops.size(), 1e18);
    double total = 0;
    for (int round = 0;
         round < max_rounds && total < 3e8 * static_cast<double>(ops.size());
         ++round) {
        for (size_t i = 0; i < ops.size(); ++i) {
            auto t0 = clock::now();
            ops[i]();
            auto t1 = clock::now();
            double ns = static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count());
            best[i] = ns < best[i] ? ns : best[i];
            total += ns;
        }
    }
    return best;
}

struct Workload
{
    const char *name;
    const char *src;
};

/** A global incremented 20k times at call depth DEPTH: every access
 *  of `g` happens DEPTH frames below main(). */
std::string
deepGlobalSource(int depth)
{
    return R"(
int g;
int work(int d) {
    if (d > 1) return work(d - 1);
    for (int i = 0; i < 20000; i++) g = g + 1;
    return g & 0xff;
}
int main(void) { return work()" +
        std::to_string(depth) + "); }\n";
}

/** TRIPS iterations of a pointer loop, run after CALLS calls of a
 *  one-local function (CALLS dead allocations). */
std::string
deadAllocsSource(int calls, int trips)
{
    return R"(
int one(void) { int x = 1; return x; }
int loop(void) {
    int v = 3;
    int *p;
    int t = 0;
    for (int i = 0; i < )" +
        std::to_string(trips) + R"(; i++) { p = &v; t += *p; }
    return t;
}
int main(void) {
    for (int i = 0; i < )" +
        std::to_string(calls) + R"(; i++) one();
    return loop() & 0xff;
}
)";
}

// ---------------------------------------------------------------------
// Evaluation only: compile once / run many.
// ---------------------------------------------------------------------

namespace corelang = cherisem::corelang;

/** Parse + analyse + optimise @p src once under @p profile. */
cherisem::sema::Program
analyzeOnce(const char *src, const Profile &profile)
{
    cherisem::frontend::TranslationUnit unit =
        cherisem::frontend::parse(src, "<bench>");
    cherisem::ctype::MachineLayout machine{
        profile.memConfig.arch->capSize(),
        profile.memConfig.arch->addrBits() / 8};
    cherisem::sema::Program prog =
        cherisem::sema::analyze(std::move(unit), machine);
    corelang::optimize(prog, profile.optims);
    return prog;
}

/** One op = one evaluation of the analysed @p prog, which must run
 *  to exit (@p what names it in the error); @p steps gets its step
 *  count. */
std::function<void()>
evalOp(const cherisem::sema::Program &prog,
       const corelang::EvalOptions &opts, const std::string &what,
       uint64_t *steps = nullptr)
{
    corelang::Machine check(prog, opts);
    corelang::Outcome o = check.run();
    if (o.kind != corelang::Outcome::Kind::Exit) {
        std::fprintf(stderr, "%s: %s\n", what.c_str(),
                     o.summary().c_str());
        std::exit(1);
    }
    if (steps)
        *steps = o.steps;
    return [&prog, opts] {
        corelang::Machine machine(prog, opts);
        corelang::Outcome o = machine.run();
        benchmark::DoNotOptimize(o.exitCode);
    };
}

/** One op = one whole runSource() (parse..evaluate). */
double
timeRun(const char *src, const Profile &profile,
        cherisem::obs::TraceSink *sink = nullptr)
{
    Profile p = profile;
    p.memConfig.traceSink = sink;
    return minTimesNs({[&] {
                          RunResult r = runSource(src, p);
                          benchmark::DoNotOptimize(r.outcome.exitCode);
                      }},
                      64)[0];
}

void
writeBenchJson(const char *path)
{
    const Workload workloads[] = {
        {"arith_loop", ARITH_LOOP},
        {"pointer_chase", POINTER_CHASE},
        {"intptr_heavy", INTPTR_HEAVY},
        {"malloc_churn", MALLOC_CHURN},
    };
    const char *profiles[] = {"cerberus", "clang-morello-O0"};

    struct Entry
    {
        std::string workload, profile;
        double nsPerRun;
    };
    std::vector<Entry> entries;
    double untraced_total = 0, traced_total = 0;

    for (const Workload &w : workloads) {
        for (const char *name : profiles) {
            const Profile *p = findProfile(name);
            entries.push_back({w.name, name, timeRun(w.src, *p)});
        }
        // Tracing-overhead ablation on the reference profile: the
        // sum over workloads gives the headline ratio.
        const Profile &ref = referenceProfile();
        untraced_total += timeRun(w.src, ref);
        cherisem::obs::RingBufferSink ring;
        traced_total += timeRun(w.src, ref, &ring);
    }
    double ratio =
        untraced_total > 0 ? traced_total / untraced_total : 0;

    // Depth flatness: the same global-increment loop, evaluation
    // only, at increasing call depth.
    struct DepthEntry
    {
        int depth;
        double evalNs;
        uint64_t steps;
    };
    std::vector<DepthEntry> depthEntries;
    for (int depth : {1, 100, 400}) {
        const Profile &ref = referenceProfile();
        std::string src = deepGlobalSource(depth);
        cherisem::sema::Program prog = analyzeOnce(src.c_str(), ref);
        corelang::EvalOptions opts = ref.evalOptions();
        uint64_t steps = 0;
        std::function<void()> op =
            evalOp(prog, opts,
                   "deep_global depth " + std::to_string(depth), &steps);
        depthEntries.push_back({depth, minTimesNs({op}, 50)[0], steps});
    }
    double depth_ratio = depthEntries.back().evalNs /
                         depthEntries.front().evalNs;

    // History flatness: the pointer loop after 0 and 16k dead
    // allocations, each minus its zero-trip control, all four
    // programs timed interleaved.
    struct DeadEntry
    {
        std::string profile;
        double loopNs[2]; // after 0, after 16k dead allocations
        double ratio;
    };
    std::vector<DeadEntry> deadEntries;
    for (const char *name : {"cerberus", "clang-morello-O0"}) {
        const Profile &p = *findProfile(name);
        corelang::EvalOptions opts = p.evalOptions();
        std::vector<cherisem::sema::Program> progs;
        for (int calls : {0, 16000}) {
            for (int trips : {4000, 0}) {
                progs.push_back(analyzeOnce(
                    deadAllocsSource(calls, trips).c_str(), p));
            }
        }
        std::vector<std::function<void()>> ops;
        for (const cherisem::sema::Program &prog : progs)
            ops.push_back(evalOp(prog, opts, "dead_allocs"));
        std::vector<double> ns = minTimesNs(ops, 40);
        DeadEntry e{name, {ns[0] - ns[1], ns[2] - ns[3]}, 0};
        e.ratio = e.loopNs[1] / e.loopNs[0];
        deadEntries.push_back(e);
    }

    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"results\": [\n");
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"profile\": \"%s\", "
                     "\"ns_per_run\": %.1f}%s\n",
                     e.workload.c_str(), e.profile.c_str(), e.nsPerRun,
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"deep_global\": [\n");
    for (size_t i = 0; i < depthEntries.size(); ++i) {
        const DepthEntry &e = depthEntries[i];
        std::fprintf(f,
                     "    {\"depth\": %d, \"eval_ns\": %.1f, "
                     "\"steps\": %llu}%s\n",
                     e.depth, e.evalNs, (unsigned long long)e.steps,
                     i + 1 < depthEntries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"dead_allocs\": [\n");
    for (size_t i = 0; i < deadEntries.size(); ++i) {
        const DeadEntry &e = deadEntries[i];
        std::fprintf(f,
                     "    {\"profile\": \"%s\", \"loop_ns_after_0\": %.1f, "
                     "\"loop_ns_after_16k\": %.1f, "
                     "\"ratio_16k_vs_0\": %.3f}%s\n",
                     e.profile.c_str(), e.loopNs[0], e.loopNs[1],
                     e.ratio, i + 1 < deadEntries.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"deep_global_ratio_400_vs_1\": %.3f,\n"
                 "  \"tracing_overhead_ratio_ring_vs_off\": %.3f\n}\n",
                 depth_ratio, ratio);
    std::fclose(f);
    std::fprintf(stderr,
                 "BENCH_interp.json written: ring-traced vs untraced "
                 "= %.3fx, deep_global depth 400 vs 1 = %.3fx",
                 ratio, depth_ratio);
    for (const DeadEntry &e : deadEntries) {
        std::fprintf(stderr, ", dead_allocs 16k vs 0 on %s = %.3fx",
                     e.profile.c_str(), e.ratio);
    }
    std::fprintf(stderr, "\n");
}

// ---------------------------------------------------------------------
// google-benchmark suite.
// ---------------------------------------------------------------------

void
runBench(benchmark::State &state, const char *src,
         const std::string &profile)
{
    const Profile &p = *findProfile(profile);
    for (auto _ : state) {
        RunResult r = runSource(src, p);
        if (r.frontendError ||
            r.outcome.kind != cherisem::corelang::Outcome::Kind::Exit) {
            state.SkipWithError("program did not run to exit");
            return;
        }
        benchmark::DoNotOptimize(r.outcome.exitCode);
    }
}

void
BM_Interp_ArithLoop_Reference(benchmark::State &state)
{
    runBench(state, ARITH_LOOP, "cerberus");
}
BENCHMARK(BM_Interp_ArithLoop_Reference);

void
BM_Interp_ArithLoop_Hardware(benchmark::State &state)
{
    runBench(state, ARITH_LOOP, "clang-morello-O0");
}
BENCHMARK(BM_Interp_ArithLoop_Hardware);

void
BM_Interp_PointerChase_Reference(benchmark::State &state)
{
    runBench(state, POINTER_CHASE, "cerberus");
}
BENCHMARK(BM_Interp_PointerChase_Reference);

void
BM_Interp_PointerChase_Hardware(benchmark::State &state)
{
    runBench(state, POINTER_CHASE, "clang-morello-O0");
}
BENCHMARK(BM_Interp_PointerChase_Hardware);

void
BM_Interp_IntptrHeavy_Reference(benchmark::State &state)
{
    runBench(state, INTPTR_HEAVY, "cerberus");
}
BENCHMARK(BM_Interp_IntptrHeavy_Reference);

void
BM_Interp_IntptrHeavy_Cheriot(benchmark::State &state)
{
    runBench(state, INTPTR_HEAVY, "cerberus-cheriot");
}
BENCHMARK(BM_Interp_IntptrHeavy_Cheriot);

void
BM_Interp_MallocChurn_Reference(benchmark::State &state)
{
    runBench(state, MALLOC_CHURN, "cerberus");
}
BENCHMARK(BM_Interp_MallocChurn_Reference);

void
BM_Interp_MallocChurn_Optimized(benchmark::State &state)
{
    runBench(state, MALLOC_CHURN, "clang-morello-O2");
}
BENCHMARK(BM_Interp_MallocChurn_Optimized);

} // namespace

int
main(int argc, char **argv)
{
    bool write_json = true;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--no-json") {
            write_json = false;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    if (write_json)
        writeBenchJson("BENCH_interp.json");

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
