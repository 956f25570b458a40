#include "spans.hpp"

#include <fstream>

namespace perfbench {

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"dropped\": " << dropped_ << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i + 1
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns - origin
        << ", \"end_ns\": " << span.end_ns - origin << "}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
