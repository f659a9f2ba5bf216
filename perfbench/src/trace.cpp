#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - child_time[i];
    t.calls += 1;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[\n";
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << (s.start - origin) * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"tick\":" << s.tick << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
