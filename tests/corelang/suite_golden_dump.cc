/**
 * @file
 * Print the golden outcome line of every tests/suite program under
 * every profile (see suite_golden.h for the format):
 *
 *     build/tests/suite_golden_dump > tests/corelang/golden/suite_outcomes.txt
 */
#include <iostream>

#include "suite_golden.h"

int
main()
{
    using namespace cherisem;
    for (const driver::SuiteTest &t :
         driver::loadSuite(driver::defaultSuiteDir())) {
        for (const driver::Profile &p : driver::allProfiles())
            std::cout << golden::goldenLine(t.name, t.source, p) << "\n";
    }
    return 0;
}
