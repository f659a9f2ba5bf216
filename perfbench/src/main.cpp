// pigp_perfbench — the streaming benchmark's executable.
//
//   pigp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// Prints a human-readable report, then one line "RESULT {json}" holding
// every metric the run measured (null for a metric the workload does not
// exercise).  perfbench/run.py turns that line into the benchmark's result.
// Exits non-zero when an output check fails.

#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: pigp_perfbench --workload <";
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
}

std::string json_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    if (m.measured && std::isfinite(m.value)) {
      out << m.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}";
  return out.str();
}

void print_table(const char* title,
                 const std::vector<perfbench::Metric>& metrics) {
  std::cout << title << ":\n";
  for (const perfbench::Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right;
    if (m.measured) {
      std::cout << std::setw(16) << std::setprecision(6) << m.value;
    } else {
      std::cout << std::setw(16) << "n/a";
    }
    std::cout << "  " << m.unit << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known || options.seconds <= 0.0) {
    usage();
    return 2;
  }

  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", " << options.seconds << " s, trace " << options.trace
            << "\n";
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
  print_table("end-to-end metrics", result.end_to_end);
  if (options.trace) print_table("per-layer metrics", result.per_layer);
  std::cout << "operations: " << result.attempted << " attempted, "
            << result.failed << " failed or rejected\n";
  for (const std::string& failure : result.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  const bool correct = result.check_failures.empty() && result.failed == 0;
  std::cout << "RESULT {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"end_to_end\": " << json_metrics(result.end_to_end)
            << ", \"per_layer\": " << json_metrics(result.per_layer) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
