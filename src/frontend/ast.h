/**
 * @file
 * Abstract syntax tree for MiniC.
 *
 * One node type per syntactic class, with the fields the type checker
 * (sema) fills in: every expression gets a type, an lvalue flag, and —
 * the CHERI C specific part — binary operations get a *derivation
 * source* recording which operand the result capability derives from
 * (sections 3.7, 4.4 of the paper: derivation is an explicit
 * elaboration step).
 */
#ifndef CHERISEM_FRONTEND_AST_H
#define CHERISEM_FRONTEND_AST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctype/ctype.h"
#include "support/source_loc.h"

namespace cherisem::frontend {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class UnOp
{
    Plus, Minus, LogNot, BitNot, Deref, AddrOf,
    PreInc, PreDec, PostInc, PostDec,
};

enum class BinOp
{
    Add, Sub, Mul, Div, Rem,
    Shl, Shr,
    Lt, Gt, Le, Ge, Eq, Ne,
    BitAnd, BitXor, BitOr,
    LogAnd, LogOr,
    Comma,
};

/** Which operand a binary op's result capability derives from
 *  (section 3.7). */
enum class DerivSource { Left, Right, None };

/** What an identifier denotes, resolved by sema against the lexical
 *  scopes (ISO C scoping: the innermost visible declaration), so the
 *  evaluator never looks a name up at run time. */
enum class NameKind : uint8_t
{
    /** Not an object or function: an enumerator, a builtin call
     *  target, or an object declared only `extern` (never defined). */
    Unresolved,
    Local,    ///< frame slot `nameIndex` of the enclosing function
    Global,   ///< index into sema::Program::globals
    Function, ///< index into TranslationUnit::functions
};

struct Expr
{
    enum class Kind
    {
        IntLit,
        FloatLit,
        StringLit,
        Ident,
        Unary,
        Binary,
        Assign,      ///< op == BinOp::Comma means plain '='.
        Cond,        ///< c ? a : b
        Cast,        ///< explicit cast, or sema-inserted implicit one
        Call,
        Index,       ///< a[i]
        Member,      ///< a.m / a->m (arrow flag)
        SizeofExpr,
        SizeofType,
        AlignofType,
        OffsetOf,    ///< offsetof(struct, member) builtin
    };

    Kind kind;
    SourceLoc loc;

    // Literals / identifiers.
    uint64_t intValue = 0;
    bool litUnsigned = false;
    bool litLong = false;
    double floatValue = 0;
    std::string text; ///< identifier, string value, or member name.

    // Operators and operands.
    UnOp unop = UnOp::Plus;
    BinOp binop = BinOp::Add;
    bool isArrow = false;
    ExprPtr lhs;
    ExprPtr rhs;
    ExprPtr cond;
    std::vector<ExprPtr> args;

    // Cast / sizeof / offsetof type operand.
    ctype::TypeRef typeOperand;

    // ---- Filled by sema ----
    ctype::TypeRef type;
    bool isLValue = false;
    /** For Cast: inserted implicitly by the usual conversions. */
    bool implicitCast = false;
    /** For Binary/Assign on capability-carrying types. */
    DerivSource deriv = DerivSource::None;
    /** Resolved enumerator constant (Ident naming an enum value). */
    bool isEnumConst = false;
    __int128 enumValue = 0;
    /** Resolved builtin/intrinsic call (Call with Ident callee). */
    int builtinId = -1;
    /** Ident: what the name denotes and its slot / table index. */
    NameKind nameKind = NameKind::Unresolved;
    uint32_t nameIndex = 0;

    static ExprPtr
    make(Kind k, SourceLoc loc)
    {
        auto e = std::make_unique<Expr>();
        e->kind = k;
        e->loc = std::move(loc);
        return e;
    }
};

/** An initializer: a single expression or a brace-enclosed list. */
struct Initializer
{
    ExprPtr expr;                          // when scalar
    std::vector<Initializer> list;         // when braced
    bool isList = false;
    SourceLoc loc;
};

/** One declared variable (local or global). */
struct VarDecl
{
    std::string name;
    ctype::TypeRef type;
    Initializer init;
    bool hasInit = false;
    bool isStatic = false;
    bool isExtern = false;
    SourceLoc loc;
    /** Filled by sema: the frame slot of a local (static locals
     *  included), or the index into sema::Program::globals of a
     *  global (kNoObject when its name is never defined). */
    uint32_t slot = 0;
    static constexpr uint32_t kNoObject = UINT32_MAX;
};

struct Stmt
{
    enum class Kind
    {
        Expr,
        Decl,
        Block,
        If,
        While,
        DoWhile,
        For,
        Return,
        Break,
        Continue,
        Switch,
        Empty,
    };

    Kind kind;
    SourceLoc loc;

    ExprPtr expr;                 // Expr, Return (may be null), If cond...
    std::vector<VarDecl> decls;   // Decl
    std::vector<StmtPtr> body;    // Block
    StmtPtr thenStmt;             // If / loop body
    StmtPtr elseStmt;             // If
    // For: init (Decl/Expr stmt), cond expr, step expr.
    StmtPtr forInit;
    ExprPtr forCond;
    ExprPtr forStep;
    // Labels attached to this statement inside a switch body
    // (constant expressions), plus the default marker.
    std::vector<ExprPtr> caseExprs;
    bool isDefault = false;
    /** Filled by sema for Block and For: the frame slots
     *  [slotBegin, slotEnd) declared inside this scope, nested scopes
     *  included (cleared when the scope exits). */
    uint32_t slotBegin = 0;
    uint32_t slotEnd = 0;

    static StmtPtr
    make(Kind k, SourceLoc loc)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = k;
        s->loc = std::move(loc);
        return s;
    }
};

struct FunctionDef
{
    std::string name;
    ctype::TypeRef type; ///< Kind::Function
    std::vector<std::string> paramNames;
    StmtPtr body;        ///< null for a prototype
    SourceLoc loc;
    /** Filled by sema: frame slots a call needs (parameter i is slot
     *  i; every local declarator of the body gets the next one). */
    uint32_t frameSize = 0;
};

/** A parsed translation unit. */
struct TranslationUnit
{
    ctype::TagTable tags;
    std::vector<FunctionDef> functions;
    std::vector<VarDecl> globals;
    /** Enumerator constants (sema resolves Ident against these). */
    std::map<std::string, long long> enumConstants;
};

} // namespace cherisem::frontend

#endif // CHERISEM_FRONTEND_AST_H
