#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Spans::Name(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<double> Spans::DurationsUs(uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns != 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Spans::WriteChromeJson(const std::string& path,
                            size_t max_per_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::vector<size_t> written(names_.size(), 0);
  std::vector<size_t> skipped(names_.size(), 0);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;  // still open: the run was cut short
    if (written[s.name] >= max_per_name) {
      ++skipped[s.name];
      continue;
    }
    ++written[s.name];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%u,\"id\":%llu}}",
                 first ? "" : ",\n", names_[s.name].c_str(),
                 static_cast<double>(s.start_ns - origin) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i + 1,
                 s.parent, static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n],\"otherData\":{");
  for (size_t n = 0; n < names_.size(); ++n) {
    std::fprintf(f, "%s\"%s.not_written\":%zu", n == 0 ? "" : ",",
                 names_[n].c_str(), skipped[n]);
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
