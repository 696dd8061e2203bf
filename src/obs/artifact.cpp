#include "obs/artifact.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/json_codec.hpp"

namespace vsgc::obs {

BenchArtifact::BenchArtifact(std::string name)
    : name_(std::move(name)), started_(std::chrono::steady_clock::now()) {
  root_ = JsonValue::object();
  root_["bench"] = name_;
  root_["schema_version"] = 1;
  root_["config"] = JsonValue::object();
  root_["results"] = JsonValue::array();
  root_["metrics"] = Registry().to_json();
  root_["sim"] = JsonValue::object();
}

void BenchArtifact::tally(const sim::Simulator& sim) {
  tally(sim.stats(), sim.now());
}

void BenchArtifact::tally(const sim::Simulator::Stats& s, sim::Time sim_time) {
  events_executed_ += s.events_executed;
  events_cancelled_ += s.events_cancelled;
  peak_queue_depth_ = std::max(peak_queue_depth_,
                               static_cast<std::uint64_t>(s.peak_queue_depth));
  sim_time_us_ += sim_time;
}

std::string BenchArtifact::output_dir() {
  const char* dir = std::getenv("VSGC_BENCH_OUT");
  return (dir != nullptr && *dir != '\0') ? dir : ".";
}

std::string BenchArtifact::write_file(const std::string& dir) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  JsonValue& sim = root_["sim"];
  sim["events_executed"] = events_executed_;
  sim["events_cancelled"] = events_cancelled_;
  sim["peak_queue_depth"] = peak_queue_depth_;
  sim["sim_time_us"] = sim_time_us_;
  sim["wall_time_seconds"] = wall;
  sim["events_per_wall_second"] =
      wall > 0 ? static_cast<double>(events_executed_) / wall : 0.0;
  const double sim_seconds = static_cast<double>(sim_time_us_) / 1e6;
  sim["wall_seconds_per_sim_second"] =
      sim_seconds > 0 ? wall / sim_seconds : 0.0;

  const std::string path =
      (dir.empty() ? output_dir() : dir) + "/BENCH_" + name_ + ".json";
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::cerr << "obs: cannot write " << path << "\n";
    return {};
  }
  write_json(os, root_, JsonStyle::kPretty);
  os << '\n';
  if (!os) return {};
  std::cout << "\n[artifact] wrote " << path << "\n";
  return path;
}

}  // namespace vsgc::obs
