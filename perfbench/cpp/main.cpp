// perfbench: one workload of the full-stack benchmark in its own process, so
// peak RSS belongs to that workload.
//
//   perfbench --workload stream|churn|explore --seed N --seconds S
//             --trace 0|1 [--out DIR] [--plant-failure]
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object {"workload", "attempted", "failed", "failures", "metrics"}
// that perfbench/run.py turns into the benchmark's result line. Exit code 0
// iff every correctness check passed; 1 on a failed check; 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stream|churn|explore --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--plant-failure]\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void print_result(const Options& opt, const Result& r) {
  for (const auto& [name, value] : r.metrics) {
    std::fprintf(stderr, "  %-44s %.6g\n", name.c_str(), value);
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"attempted\":%llu,\"failed\":%llu,"
              "\"failures\":[",
              opt.workload.c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",",
                json_escape(r.failures[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = std::isfinite(r.metrics[i].second) ? r.metrics[i].second
                                                         : 0.0;
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",",
                r.metrics[i].first.c_str(), v);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.start_ns = perfbench::wall_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--out") opt.out_dir = value();
    else if (a == "--plant-failure") opt.plant_failure = true;
    else {
      usage();
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    usage();
    return 2;
  }
  vsgc::Logger::instance().set_level(vsgc::LogLevel::kOff);

  Result r;
  try {
    if (opt.workload == "stream") r = perfbench::run_stream(opt);
    else if (opt.workload == "churn") r = perfbench::run_churn(opt);
    else if (opt.workload == "explore") r = perfbench::run_explore(opt);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    r.fail(std::string("unexpected exception: ") + e.what());
  }
  if (r.attempted == 0) r.attempted = 1;
  r.set("e2e.failed_frac",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  print_result(opt, r);
  return r.failed == 0 ? 0 : 1;
}
