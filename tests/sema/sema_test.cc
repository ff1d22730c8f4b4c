/**
 * @file
 * Unit tests for the type checker: the CHERI C conversion-rank rule,
 * capability-derivation annotation (sections 3.7/4.4), implicit cast
 * insertion, and diagnostic cases.
 */
#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "sema/sema.h"

namespace cherisem::sema {
namespace {

using frontend::DerivSource;
using frontend::Expr;
using frontend::Stmt;
using ctype::IntKind;

const ctype::MachineLayout MORELLO{16, 8};

Program
analyzeSrc(const std::string &src)
{
    return analyze(frontend::parse(src, "t"), MORELLO);
}

/** The initializer expression of the n-th statement-decl in main. */
const Expr &
declInit(const Program &p, size_t stmt_idx)
{
    const auto &fn =
        p.unit.functions[p.functionIndex.at("main")];
    const Stmt &s = *fn.body->body[stmt_idx];
    EXPECT_EQ(s.kind, Stmt::Kind::Decl);
    return *s.decls[0].init.expr;
}

/** Strip the implicit conversions sema wraps around @p e. */
const Expr &
unwrapCasts(const Expr &e)
{
    const Expr *x = &e;
    while (x->kind == Expr::Kind::Cast && x->implicitCast)
        x = x->lhs.get();
    return *x;
}

TEST(Sema, ResolvesIdentifiersLexically)
{
    Program p = analyzeSrc(R"(
int g;
int g = 4;
extern int only_declared;
int f(int a, int b) { return a; }
int main(void) {
    int g2 = g;
    {
        int g = 1;
        int h = g;
    }
    int k = f(1, 2);
    return k;
}
)");
    // One object for g's two definitions; bare extern gets none.
    ASSERT_EQ(p.globals.size(), 1u);
    EXPECT_EQ(p.globalIndex.at("g"), 0u);
    EXPECT_EQ(p.unit.globals[0].slot, 0u);
    EXPECT_EQ(p.unit.globals[1].slot, 0u);
    EXPECT_EQ(p.unit.globals[2].slot, frontend::VarDecl::kNoObject);

    const auto &f = p.unit.functions[p.functionIndex.at("f")];
    EXPECT_EQ(f.frameSize, 2u); // a, b
    const Expr &ret = unwrapCasts(*f.body->body[0]->expr);
    EXPECT_EQ(ret.nameKind, frontend::NameKind::Local);
    EXPECT_EQ(ret.nameIndex, 0u);

    const auto &m = p.unit.functions[p.functionIndex.at("main")];
    EXPECT_EQ(m.frameSize, 4u); // g2, g (block), h, k
    const Expr &outer = unwrapCasts(*m.body->body[0]->decls[0].init.expr);
    EXPECT_EQ(outer.nameKind, frontend::NameKind::Global);
    const Stmt &block = *m.body->body[1];
    EXPECT_EQ(block.slotBegin, 1u);
    EXPECT_EQ(block.slotEnd, 3u);
    const Expr &inner = unwrapCasts(*block.body[1]->decls[0].init.expr);
    EXPECT_EQ(inner.nameKind, frontend::NameKind::Local);
    EXPECT_EQ(inner.nameIndex, block.body[0]->decls[0].slot);
    const Expr &call = unwrapCasts(*m.body->body[2]->decls[0].init.expr);
    EXPECT_EQ(call.lhs->nameKind, frontend::NameKind::Function);
    EXPECT_EQ(call.lhs->nameIndex, p.functionIndex.at("f"));
}

TEST(Sema, IntptrOutranksEverything)
{
    Program p = analyzeSrc(R"(
#include <stdint.h>
int main(void) {
    int x;
    intptr_t ip = (intptr_t)&x;
    intptr_t r1 = ip + 1;
    intptr_t r2 = ip + 1ul;
    intptr_t r3 = 1ul + ip;
    return 0;
}
)");
    for (size_t i : {2u, 3u, 4u}) {
        const Expr &e = declInit(p, i);
        EXPECT_EQ(e.type->intKind, IntKind::Intptr) << i;
    }
}

TEST(Sema, DerivationPrefersNonConverted)
{
    Program p = analyzeSrc(R"(
#include <stdint.h>
int main(void) {
    int x;
    intptr_t ip = (intptr_t)&x;
    intptr_t a = ip + 4;          /* left cap  -> Left */
    intptr_t b = 4 + ip;          /* right cap -> Right */
    intptr_t c = ip + (intptr_t)4; /* rhs is converted -> Left */
    return 0;
}
)");
    EXPECT_EQ(declInit(p, 2).deriv, DerivSource::Left);
    EXPECT_EQ(declInit(p, 3).deriv, DerivSource::Right);
    EXPECT_EQ(declInit(p, 4).deriv, DerivSource::Left);
}

TEST(Sema, DerivationTieGoesLeft)
{
    Program p = analyzeSrc(R"(
#include <stdint.h>
int main(void) {
    int x, y;
    intptr_t a = (intptr_t)&x;
    intptr_t b = (intptr_t)&y;
    intptr_t c = a + b;
    return 0;
}
)");
    // "int x, y;" is a single declaration statement.
    EXPECT_EQ(declInit(p, 3).deriv, DerivSource::Left);
}

TEST(Sema, ImplicitConversionsInserted)
{
    Program p = analyzeSrc(R"(
int main(void) {
    long l = 3;      /* int -> long cast inserted */
    char c = l;      /* long -> char cast */
    double d = c;    /* char -> double */
    return 0;
}
)");
    EXPECT_EQ(declInit(p, 0).kind, Expr::Kind::Cast);
    EXPECT_TRUE(declInit(p, 0).implicitCast);
    EXPECT_EQ(declInit(p, 1).kind, Expr::Kind::Cast);
    EXPECT_EQ(declInit(p, 2).kind, Expr::Kind::Cast);
}

TEST(Sema, ArrayDecay)
{
    Program p = analyzeSrc(R"(
int main(void) {
    int a[4];
    int *q = a;
    return 0;
}
)");
    const Expr &e = declInit(p, 1);
    EXPECT_EQ(e.kind, Expr::Kind::Cast);
    EXPECT_TRUE(e.type->isPointer());
    EXPECT_TRUE(e.lhs->type->isArray());
}

TEST(Sema, PointerArithmeticTyping)
{
    Program p = analyzeSrc(R"(
int main(void) {
    int a[8];
    int *q = a + 3;
    long d = (a + 5) - (a + 2);
    return 0;
}
)");
    EXPECT_TRUE(declInit(p, 1).type->isPointer());
    // Pointer difference is ptrdiff_t (long).
    const Expr &diff = declInit(p, 2);
    const Expr *inner = &diff;
    while (inner->kind == Expr::Kind::Cast)
        inner = inner->lhs.get();
    EXPECT_EQ(inner->type->intKind, IntKind::Long);
}

TEST(Sema, UsualArithmeticConversions)
{
    Program p = analyzeSrc(R"(
int main(void) {
    int i = 1;
    unsigned u = 2;
    long l = 3;
    unsigned long ul = 4;
    int r1 = (i + u) > 0;    /* int+uint -> uint */
    int r2 = (i + l) > 0;    /* int+long -> long */
    int r3 = (l + ul) > 0;   /* long+ulong -> ulong */
    char c1 = 'a';
    char c2 = 'b';
    int r4 = c1 + c2;        /* char promotes to int */
    return r1 + r2 + r3 + r4;
}
)");
    const auto &fn =
        p.unit.functions[p.functionIndex.at("main")];
    const Expr &r1 = *fn.body->body[4]->decls[0].init.expr;
    const Expr *cmp = &r1;
    while (cmp->kind == Expr::Kind::Cast)
        cmp = cmp->lhs.get();
    EXPECT_EQ(cmp->lhs->type->intKind, IntKind::UInt);
}

TEST(Sema, BuiltinResolutionPolymorphic)
{
    // cheri_bounds_set : C x size_t -> C for both pointer and
    // uintptr_t arguments (section 4.5).
    Program p = analyzeSrc(R"(
#include <stdint.h>
int main(void) {
    int a[4];
    int *p = cheri_bounds_set(a, 8);
    uintptr_t u = (uintptr_t)a;
    uintptr_t v = cheri_bounds_set(u, 8);
    return 0;
}
)");
    const Expr &pc = declInit(p, 1);
    EXPECT_TRUE(pc.type->isPointer() ||
                (pc.kind == Expr::Kind::Cast &&
                 pc.lhs->type->isPointer()));
    const Expr &uc = declInit(p, 3);
    const Expr *call = &uc;
    while (call->kind == Expr::Kind::Cast)
        call = call->lhs.get();
    EXPECT_EQ(call->type->intKind, IntKind::Uintptr);
}

TEST(Sema, BuiltinRejectsNonCapArgument)
{
    EXPECT_THROW(analyzeSrc(R"(
int main(void) {
    int x = 3;
    return cheri_tag_get(x); /* plain int: no capability */
}
)"),
                 SemaError);
}

TEST(Sema, Errors)
{
    EXPECT_THROW(analyzeSrc("int main(void) { return y; }"),
                 SemaError);
    EXPECT_THROW(analyzeSrc("int main(void) { int x; x(); }"),
                 SemaError);
    EXPECT_THROW(
        analyzeSrc("int main(void) { int x; return *x; }"),
        SemaError);
    EXPECT_THROW(
        analyzeSrc("int main(void) { const int c = 1; c = 2; }"),
        SemaError);
    EXPECT_THROW(analyzeSrc("int main(void) { 3 = 4; }"), SemaError);
    EXPECT_THROW(
        analyzeSrc("void f(int a); int main(void) { f(1, 2); }"),
        SemaError);
    EXPECT_THROW(analyzeSrc(
                     "int main(void) { return unknown_fn(1); }"),
                 SemaError);
}

TEST(Sema, StringLiteralTyping)
{
    Program p = analyzeSrc(R"(
int main(void) {
    const char *s = "abc";
    char buf[] = "xyz";
    return 0;
}
)");
    const auto &fn =
        p.unit.functions[p.functionIndex.at("main")];
    // buf gets its size from the literal (+ NUL).
    EXPECT_EQ(fn.body->body[1]->decls[0].type->arraySize, 4u);
}

TEST(Sema, EnumConstantsResolve)
{
    Program p = analyzeSrc(R"(
enum k { A, B = 10 };
int main(void) { return A + B; }
)");
    const auto &fn =
        p.unit.functions[p.functionIndex.at("main")];
    const Expr &sum = *fn.body->body[0]->expr;
    EXPECT_TRUE(sum.lhs->isEnumConst);
    EXPECT_EQ(sum.rhs->enumValue, 10);
}

TEST(Sema, ConditionalTyping)
{
    Program p = analyzeSrc(R"(
int main(void) {
    int a = 1;
    long b = 2;
    long r = a ? a : b;
    int *p = 0;
    int *q = a ? p : 0;
    return 0;
}
)");
    const Expr &r = declInit(p, 2);
    const Expr *inner = &r;
    while (inner->kind == Expr::Kind::Cast)
        inner = inner->lhs.get();
    EXPECT_EQ(inner->type->intKind, IntKind::Long);
}

} // namespace
} // namespace cherisem::sema
