#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded only around calls into the library's public
/// functions (see workloads.cpp); nothing inside the library is
/// instrumented.  A span carries its name, start and end, the span that
/// caused it and the tick it belongs to.  Spans live in memory and are
/// written out once, at exit, as Chrome trace-event JSON; self time (a
/// span's duration minus the part its children cover) is aggregated per
/// span name.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary epoch.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds
  double end = 0.0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  int tick = -1;    ///< the delta this span belongs to
};

/// Per-name aggregate of the recorded spans.
struct SpanTotals {
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed durations minus child coverage
  std::int64_t calls = 0;
};

class Tracer {
 public:
  /// Reserve room for \p spans spans so recording does not reallocate.
  explicit Tracer(std::size_t spans = 1 << 16) { spans_.reserve(spans); }

  /// Open a span as a child of the innermost open span.
  int begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.tick = tick_;
    s.start = now_seconds();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_seconds();
    stack_.pop_back();
  }
  void set_tick(int tick) { tick_ = tick; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total and self time per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Write every span as a Chrome trace-event JSON file.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int tick_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Nearest-rank percentile (\p q in [0, 1]) of \p values; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median of \p values; 0 when empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
