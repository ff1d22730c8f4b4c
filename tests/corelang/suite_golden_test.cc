/**
 * @file
 * The corpus goldens (suite_golden.h): every tests/suite program under
 * every profile must reproduce its pinned verdict, step count, memory
 * counters, output and witness-trace digest bit for bit.
 *
 *  - SuiteGolden.Reproduces/<profile>: the whole corpus under one
 *    profile, through the serving layer's traced request path.
 *  - Corpus/EngineEquivalence.{MapStore,PagedStore}/<program>: one
 *    program under the reference profile on each store backend.  The
 *    goldens were pinned while a second (bytecode) engine was kept
 *    bit-identical to the tree walker; these per-program cases now
 *    hold the single engine to that same stream.
 *  - EngineEquivalence.AllProfilesSpotCheck: every 16th program under
 *    every profile on the Map backend, so the oracle store is checked
 *    against the goldens beyond the reference profile.
 */
#include <gtest/gtest.h>

#include "suite_golden.h"

namespace cherisem::golden {
namespace {

const std::vector<driver::SuiteTest> &
suite()
{
    static std::vector<driver::SuiteTest> tests =
        driver::loadSuite(driver::defaultSuiteDir());
    return tests;
}

const std::map<std::string, std::string> &
golden()
{
    static std::map<std::string, std::string> lines = loadGolden();
    return lines;
}

/** Run @p t under @p p (possibly on a store backend other than the
 *  profile's own) and compare with the profile's pinned line. */
void
expectGolden(const driver::SuiteTest &t, const driver::Profile &p)
{
    auto it = golden().find(t.name + " " + p.name);
    ASSERT_NE(it, golden().end())
        << "no golden line for " << t.name << " under " << p.name
        << " (regenerate: see suite_golden.h)";
    EXPECT_EQ(goldenLine(t.name, t.source, p), it->second);
}

TEST(SuiteGolden, CoversEveryProgramAndProfile)
{
    EXPECT_EQ(golden().size(),
              suite().size() * driver::allProfiles().size());
}

class SuiteGolden : public ::testing::TestWithParam<size_t>
{};

TEST_P(SuiteGolden, Reproduces)
{
    const driver::Profile &p = driver::allProfiles()[GetParam()];
    for (const driver::SuiteTest &t : suite())
        expectGolden(t, p);
}

std::string
sanitized(std::string n)
{
    for (char &c : n) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SuiteGolden,
    ::testing::Range<size_t>(0, driver::allProfiles().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return sanitized(driver::allProfiles()[info.param].name);
    });

class EngineEquivalence : public ::testing::TestWithParam<size_t>
{};

void
expectBackend(size_t i, mem::StoreBackend backend)
{
    driver::Profile p = driver::referenceProfile();
    p.memConfig.storeBackend = backend;
    expectGolden(suite()[i], p);
}

TEST_P(EngineEquivalence, MapStore)
{
    expectBackend(GetParam(), mem::StoreBackend::Map);
}

TEST_P(EngineEquivalence, PagedStore)
{
    expectBackend(GetParam(), mem::StoreBackend::Paged);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EngineEquivalence,
    ::testing::Range<size_t>(0, suite().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return sanitized(suite()[info.param].name);
    });

TEST(EngineEquivalence, AllProfilesSpotCheck)
{
    const std::vector<driver::SuiteTest> &tests = suite();
    ASSERT_FALSE(tests.empty());
    for (const driver::Profile &p : driver::allProfiles()) {
        driver::Profile map = p;
        map.memConfig.storeBackend = mem::StoreBackend::Map;
        for (size_t i = 0; i < tests.size(); i += 16)
            expectGolden(tests[i], map);
    }
}

} // namespace
} // namespace cherisem::golden
