#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads and the result they report.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
};

/// One named value; `measured` is false for a metric the workload does
/// not exercise (printed as n/a, never as a number).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool measured = true;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Names of the workloads, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload: set up, measure for options.seconds, check the
/// outputs, and (traced) replay the stream through the layer functions.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
