// The three workloads. Each drives the stack only through its public
// surfaces and returns its metrics (see perfbench/README.md).
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_stream(const Options& opt);
Result run_churn(const Options& opt);
Result run_explore(const Options& opt);

}  // namespace perfbench
