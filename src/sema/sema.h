/**
 * @file
 * Type checker / elaborator for MiniC.
 *
 * Annotates the AST in place: every expression gets a type and lvalue
 * flag; implicit conversions become explicit Cast nodes (the
 * elaboration that lets the evaluator stay typing-free); binary
 * operations on capability-carrying types get their *derivation
 * source* (section 3.7 / 4.4: derive from the operand that was not
 * converted from a non-capability type, ties to the left); calls to
 * builtins/intrinsics are resolved through the type-derivation DSL
 * (section 4.5).
 */
#ifndef CHERISEM_SEMA_SEMA_H
#define CHERISEM_SEMA_SEMA_H

#include <map>
#include <string>
#include <vector>

#include "ctype/layout.h"
#include "frontend/ast.h"

namespace cherisem::sema {

struct SemaError
{
    SourceLoc loc;
    std::string message;

    std::string str() const { return loc.str() + ": " + message; }
};

/** One file-scope object: every defining declaration of a name
 *  (anything but a bare `extern`) shares it. */
struct Global
{
    std::string name;
    /** The type of the name's last defining declaration. */
    ctype::TypeRef type;
};

/** The fully analysed program handed to the evaluator.  Every Ident
 *  is resolved (Expr::nameKind / nameIndex), so the evaluator needs
 *  no name lookup; the by-name maps serve entry points and tools. */
struct Program
{
    frontend::TranslationUnit unit;
    /** name -> index into unit.functions (bodies only). */
    std::map<std::string, uint32_t> functionIndex;
    /** File-scope objects, in order of first definition. */
    std::vector<Global> globals;
    /** name -> index into globals. */
    std::map<std::string, uint32_t> globalIndex;
    ctype::MachineLayout machine;
};

/**
 * Run semantic analysis.  Throws SemaError on ill-typed programs.
 */
Program analyze(frontend::TranslationUnit unit,
                const ctype::MachineLayout &machine);

} // namespace cherisem::sema

#endif // CHERISEM_SEMA_SEMA_H
