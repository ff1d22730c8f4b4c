/**
 * @file
 * Golden outcomes of the annotated corpus: one line per
 * (tests/suite program, profile) pinning everything a run makes
 * observable.
 *
 *     <name> <profile> <verdict> steps=N loads=N stores=N allocs=N
 *         kills=N ghost_inval=N hard_inval=N output=<fnv1a>
 *         digest=<fnv1a>
 *
 * (one line in the file; wrapped here).  The verdict is `exit N`,
 * `ub UB_...`, `assert-fail`, `error`, `resource-exhausted` or
 * `frontend-error`; `digest` is the witness-trace digest the serving
 * layer computes (fnv1a over the rendered events, see serve/exec.cc).
 *
 * The file tests/corelang/golden/suite_outcomes.txt is the
 * regression net for the whole corpus: any change to the frontend,
 * sema, the evaluator or the memory model that alters a verdict, a
 * step count, a memory counter or a single witness event shows up as
 * a line diff.  Regenerate it (only when a change of meaning is
 * intended and justified) with
 *
 *     build/tests/suite_golden_dump > tests/corelang/golden/suite_outcomes.txt
 */
#ifndef CHERISEM_TESTS_CORELANG_SUITE_GOLDEN_H
#define CHERISEM_TESTS_CORELANG_SUITE_GOLDEN_H

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "driver/profiles.h"
#include "driver/suite.h"
#include "serve/exec.h"

namespace cherisem::golden {

inline std::string
goldenPath()
{
    return std::string(CHERISEM_SOURCE_DIR) +
           "/tests/corelang/golden/suite_outcomes.txt";
}

inline std::string
verdictOf(const serve::ExecResult &r)
{
    using Kind = corelang::Outcome::Kind;
    if (r.frontendError)
        return "frontend-error";
    const corelang::Outcome &o = r.outcome;
    switch (o.kind) {
      case Kind::Exit:
        return "exit " + std::to_string(o.exitCode);
      case Kind::Undefined:
        return std::string("ub ") + mem::ubName(o.failure.ub);
      case Kind::AssertFail:
        return "assert-fail";
      case Kind::Error:
        return "error";
      case Kind::ResourceExhausted:
        return "resource-exhausted";
    }
    return "?";
}

/** Run @p source under @p profile exactly as a traced serve request
 *  does and render its golden line. */
inline std::string
goldenLine(const std::string &name, const std::string &source,
           const driver::Profile &profile)
{
    serve::RunSpec spec;
    spec.traceDigest = true;
    serve::ExecResult r = serve::runRequest(source, profile, spec,
                                            serve::ExecLimits{},
                                            /*cache=*/nullptr);
    const mem::MemStats &m = r.outcome.memStats;
    const std::string &out = r.outcome.output;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        " steps=%" PRIu64 " loads=%" PRIu64 " stores=%" PRIu64
        " allocs=%" PRIu64 " kills=%" PRIu64 " ghost_inval=%" PRIu64
        " hard_inval=%" PRIu64 " output=%016" PRIx64
        " digest=%016" PRIx64,
        r.outcome.steps, m.loads, m.stores, m.allocations, m.kills,
        m.ghostTagInvalidations, m.hardTagInvalidations,
        serve::fnv1a(out.data(), out.size()), r.digest);
    return name + " " + profile.name + " " + verdictOf(r) + buf;
}

/** The pinned lines, keyed by "<name> <profile>". */
inline std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> lines;
    std::ifstream in(goldenPath());
    std::string line;
    while (std::getline(in, line)) {
        size_t a = line.find(' ');
        size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
        if (b != std::string::npos)
            lines[line.substr(0, b)] = line;
    }
    return lines;
}

} // namespace cherisem::golden

#endif // CHERISEM_TESTS_CORELANG_SUITE_GOLDEN_H
