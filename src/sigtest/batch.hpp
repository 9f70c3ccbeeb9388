// Benchmark-only shim: perfbench/ still names the test cell by the three
// classes it replaced, and perfbench/ changes only with the benchmark.
// Everything else includes sigtest/cell.hpp and says TestCell.
#pragma once

#include "sigtest/cell.hpp"

namespace stf::sigtest {

using BatchRuntime = TestCell;
using GuardedRuntime = TestCell;
using FastestRuntime = TestCell;

}  // namespace stf::sigtest
