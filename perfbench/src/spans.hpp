// In-memory span log of the traced run: one record per timed call into a
// layer, written out as a JSON array when the run ends. Spans are recorded
// from the benchmark's own code around the library's public calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Keeps at most `capacity` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Records [start_ns, end_ns) under `name` (a string literal) and returns
  /// the span's id (ids start at 1), or 0 when the log is full. `parent` is
  /// the id of the enclosing span, 0 for a root.
  std::uint32_t record(const char* name, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, parent, start_ns, end_ns});
    return static_cast<std::uint32_t>(spans_.size());
  }

  /// Sets the end of span `id` (no-op for 0), for spans opened before
  /// their end is known.
  void finish(std::uint32_t id, std::int64_t end_ns) {
    if (id != 0) spans_[id - 1].end_ns = end_ns;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes {"dropped": n, "spans": [{"id", "parent", "name", "start_ns",
  /// "end_ns"}, ...]} with times relative to the first span. Returns false
  /// when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
