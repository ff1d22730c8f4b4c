/**
 * @file
 * Lexical scoping (ISO C 6.2.1): an identifier denotes the innermost
 * declaration visible *where it is written*, never a declaration of
 * the same name that happens to be live in a caller's frame.  Sema
 * resolves every identifier to a frame slot, a global or a function,
 * so each program below has its C meaning; under run-time lookup
 * through the caller frames (dynamic scoping) every one of them
 * computed a different result.
 */
#include <gtest/gtest.h>

#include "driver/interpreter.h"

namespace cherisem::driver {
namespace {

using corelang::Outcome;

int
runExit(const std::string &src)
{
    RunResult r = runSource(src, referenceProfile());
    EXPECT_FALSE(r.frontendError) << r.frontendMessage;
    EXPECT_EQ(r.outcome.kind, Outcome::Kind::Exit)
        << r.outcome.summary();
    return r.outcome.exitCode;
}

TEST(Scoping, CalleeReadsTheGlobalNotTheCallersLocal)
{
    // gcc gives 41; dynamic lookup made g() read main's x (80).
    EXPECT_EQ(runExit(R"(
int x = 1;
int g(void) { return x; }
int main(void) { int x = 40; return g() + x; }
)"),
              41);
}

TEST(Scoping, ShadowOfADifferentTypeKeepsEachDeclarationsType)
{
    // g() reads the long global at type long, not main's char.
    EXPECT_EQ(runExit(R"(
long x = 100000;
long g(void) { return x; }
int main(void) {
    char x = 3;
    return (g() == 100000 ? 40 : 0) + x;
}
)"),
              43);
}

TEST(Scoping, RecursionReadsTheShadowedGlobal)
{
    // Before its local declaration, rec() sees the global; peek()
    // always does, however deep the recursion that shadows it.
    EXPECT_EQ(runExit(R"(
int total = 5;
int peek(void) { return total; }
int rec(int k) {
    int seen = total;
    int total = 100 + k;
    if (k == 0)
        return seen + peek();
    return rec(k - 1) + total - total;
}
int main(void) { return rec(3); }
)"),
              10);
}

TEST(Scoping, BlockScopedShadowEndsWithTheBlock)
{
    EXPECT_EQ(runExit(R"(
int x = 1;
int get(void) { return x; }
int main(void) {
    int r = 0;
    {
        int x = 50;
        r += get();
        r += x;
    }
    r += x;
    return r;
}
)"),
              52);
}

TEST(Scoping, StaticLocalPersistsAndDoesNotLeakIntoCallees)
{
    EXPECT_EQ(runExit(R"(
int counter = 100;
int peek(void) { return counter; }
int bump(void) {
    static int counter = 0;
    counter++;
    return counter * 10 + peek();
}
int main(void) {
    bump();
    return bump();
}
)"),
              120);
}

TEST(Scoping, LocalFunctionPointerShadowsTheFunctionOnlyInItsScope)
{
    // main calls through its variable; callOne() still names the
    // function one().
    EXPECT_EQ(runExit(R"(
int one(void) { return 1; }
int two(void) { return 2; }
int callOne(void) { return one(); }
int main(void) {
    int (*one)(void) = two;
    return callOne() * 10 + one();
}
)"),
              12);
}

TEST(Scoping, ReadPastASkippedDeclarationIsUnbound)
{
    // switch jumps over y's declaration: the name is in scope but its
    // object was never created.
    RunResult r = runSource(R"(
int main(void) {
    int v = 1;
    switch (v) {
      case 0:
        ;
        int y = 5;
      case 1:
        return y;
    }
    return 0;
}
)",
                            referenceProfile());
    ASSERT_FALSE(r.frontendError) << r.frontendMessage;
    EXPECT_EQ(r.outcome.kind, Outcome::Kind::Error);
    EXPECT_NE(r.outcome.message.find("unbound identifier y"),
              std::string::npos)
        << r.outcome.message;
}

} // namespace
} // namespace cherisem::driver
