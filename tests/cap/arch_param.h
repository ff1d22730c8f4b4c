/**
 * @file
 * gtest printer for `const CapArch *` test parameters.
 *
 * gtest lists a value-parameterized test with its parameter printed
 * ("... # GetParam() = ..."), and CTest's gtest_discover_tests keeps
 * that text in the test name.  By default a pointer prints as its
 * address, which ASLR moves on every run, so the discovered test names
 * changed with every build.  Printing the architecture name keeps them
 * stable.  Found by argument-dependent lookup from the pointee's
 * namespace, so it must live in cherisem::cap itself.
 */
#ifndef CHERISEM_TESTS_CAP_ARCH_PARAM_H
#define CHERISEM_TESTS_CAP_ARCH_PARAM_H

#include <ostream>

#include "cap/capability.h"

namespace cherisem::cap {

inline void
PrintTo(const CapArch *arch, std::ostream *os)
{
    *os << (arch ? arch->name() : "null");
}

} // namespace cherisem::cap

#endif // CHERISEM_TESTS_CAP_ARCH_PARAM_H
