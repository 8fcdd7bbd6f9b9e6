// In-memory span recorder for the benchmark's own calls into each layer.
//
// Every timed call goes through Open/Close, which read the steady clock
// whether or not recording is on: the end-to-end numbers come from the
// returned durations. With recording on, Close also keeps the span (name,
// start, end, parent, packet or tick id) in a preallocated vector; the
// per-layer table is computed from those spans, and WriteChromeJson dumps
// them as Chrome trace events at the end of the run. Spans are recorded
// from the benchmark's thread only, so no locking is needed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

int64_t NowNs();

class Spans {
 public:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = 0;  // 1-based index of the enclosing span, 0 = none
    uint64_t id = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Token {
    int64_t start_ns = 0;
    uint64_t id = 0;
    uint32_t slot = 0;  // 1-based index into spans_, 0 = not recorded
    uint32_t parent = 0;
  };

  explicit Spans(bool record) : record_(record) {
    if (record_) spans_.reserve(1 << 20);
  }

  void set_recording(bool record) { record_ = record; }
  // Interns a span name; call outside timed loops.
  uint32_t Name(std::string_view name);

  Token Open(uint64_t id = 0) {
    Token t;
    t.id = id;
    if (record_) {
      spans_.push_back(Span{});
      t.slot = static_cast<uint32_t>(spans_.size());
      t.parent = current_;
      current_ = t.slot;
    }
    t.start_ns = NowNs();
    return t;
  }
  // Ends the span under `name` and returns its duration in nanoseconds.
  int64_t Close(const Token& t, uint32_t name) {
    const int64_t end = NowNs();
    if (t.slot != 0) {
      spans_[t.slot - 1] = Span{name, t.parent, t.id, t.start_ns, end};
      current_ = t.parent;
    }
    return end - t.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (µs) of every recorded span with this name, in record order.
  std::vector<double> DurationsUs(uint32_t name) const;
  // Writes at most `max_per_name` spans of each name as Chrome trace-event
  // JSON ("X" events); returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path, size_t max_per_name) const;

 private:
  bool record_;
  uint32_t current_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

}  // namespace perfbench
