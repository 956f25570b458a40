#include "obs/export.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace ofmtl::obs {

namespace {

constexpr std::array<char, 8> kMagic = {'O', 'F', 'T', 'R',
                                        'A', 'C', 'E', '1'};

// Sanity caps so a corrupt header cannot demand absurd work even when the
// file happens to be large enough to back it.
constexpr std::uint64_t kMaxThreads = 1 << 16;
constexpr std::uint64_t kMaxName = 1 << 12;

// Distinguishes the extended header (process identity) from the legacy one:
// the u64 after the magic is either a legacy thread count (≤ kMaxThreads)
// or this sentinel announcing "version, pid, process name follow". Chosen
// all-ones so no legal thread count ever collides with it.
constexpr std::uint64_t kProcessHeaderSentinel = ~std::uint64_t{0};
constexpr std::uint64_t kContainerVersion = 2;

void put_u64(std::ostream& out, std::uint64_t value) {
  std::array<unsigned char, 8> bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(bytes.data()), 8);
}

/// Bounds-checked cursor over the fully-read file image. Every read is
/// validated against the REAL byte count, so no section-length field can
/// cause a read past the end or an allocation the file cannot back.
struct ByteReader {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return size - pos; }

  [[nodiscard]] bool read_u64(std::uint64_t& value) {
    if (remaining() < 8) return false;
    value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return true;
  }

  [[nodiscard]] bool read_string(std::string& out, std::uint64_t len) {
    if (remaining() < len) return false;
    out.assign(reinterpret_cast<const char*>(data + pos),
               static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
  }
};

/// Minimal JSON string escape (thread names and static event names only).
void put_json_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';  // other control bytes: blank them
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Microsecond timestamp with nanosecond precision, chrome-trace style.
void put_ts_us(std::ostream& out, std::uint64_t ts_ns) {
  out << ts_ns / 1000 << '.' << static_cast<char>('0' + (ts_ns % 1000) / 100)
      << static_cast<char>('0' + (ts_ns % 100) / 10)
      << static_cast<char>('0' + ts_ns % 10);
}

/// Comma bookkeeping shared by the single- and multi-dump writers.
struct EventSink {
  std::ostream& out;
  bool first = true;
  void prefix() {
    if (!first) out << ',';
    first = false;
    out << '\n';
  }
};

/// Render one dump's threads under the given pid, shifting every timestamp
/// by `shift_ns` (the merge's wall-clock alignment; 0 for a lone dump).
void write_dump_events(EventSink& sink, const TraceDump& dump,
                       std::uint64_t pid, std::int64_t shift_ns) {
  std::ostream& out = sink.out;
  const auto shifted = [shift_ns](std::uint64_t ts) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(ts) +
                                      shift_ns);
  };

  // Process-name metadata so merged multi-process traces label tracks.
  sink.prefix();
  out << R"({"ph":"M","name":"process_name","pid":)" << pid
      << R"(,"tid":0,"args":{"name":)";
  put_json_string(out, dump.process_name.empty() ? std::string("process")
                                                 : dump.process_name);
  out << "}}";

  for (const auto& thread : dump.threads) {
    sink.prefix();
    out << R"({"ph":"M","name":"thread_name","pid":)" << pid << R"(,"tid":)"
        << thread.tid << R"(,"args":{"name":)";
    put_json_string(out, thread.name);
    out << "}}";

    DecodeStats stats;
    const auto events = decode_thread(thread, &stats);

    // Overwrite-loss counter tracks: one sample per thread makes ring
    // overwrites and the undecodable prefix visible right on the timeline
    // next to the slices they truncated.
    const std::uint64_t counter_ts =
        events.empty() ? 0 : shifted(events.front().ts_ns);
    sink.prefix();
    out << R"({"ph":"C","name":"ring_dropped","pid":)" << pid << R"(,"tid":)"
        << thread.tid << R"(,"ts":)";
    put_ts_us(out, counter_ts);
    out << R"(,"args":{"value":)" << thread.dropped << "}}";
    sink.prefix();
    out << R"({"ph":"C","name":"decode_skipped","pid":)" << pid
        << R"(,"tid":)" << thread.tid << R"(,"ts":)";
    put_ts_us(out, counter_ts);
    out << R"(,"args":{"value":)" << stats.skipped_prefix << "}}";

    SlicePairer pairer;
    for (const auto& event : events) {
      const char* name = trace_event_name(event.event);
      switch (trace_event_kind(event.event)) {
        case TraceEventKind::kBegin:
          (void)pairer.pair(event);
          break;
        case TraceEventKind::kEnd: {
          const auto slice = pairer.pair(event);
          if (!slice) {
            // Unpaired end (its begin was overwritten): render as instant.
            sink.prefix();
            out << R"({"ph":"i","s":"t","name":")" << name
                << R"(","pid":)" << pid << R"(,"tid":)" << thread.tid
                << R"(,"ts":)";
            put_ts_us(out, shifted(event.ts_ns));
            out << "}";
            break;
          }
          sink.prefix();
          out << R"({"ph":"X","name":")" << name << R"(","pid":)" << pid
              << R"(,"tid":)" << thread.tid << R"(,"ts":)";
          put_ts_us(out, shifted(slice->begin.ts_ns));
          out << R"(,"dur":)";
          put_ts_us(out, slice->duration_ns());
          out << R"(,"args":{"arg":)" << slice->begin.arg << R"(,"payload":)"
              << slice->begin.payload << "}}";
          break;
        }
        case TraceEventKind::kCounter:
          sink.prefix();
          out << R"({"ph":"C","name":")" << name << R"(","pid":)" << pid
              << R"(,"tid":)" << thread.tid << R"(,"ts":)";
          put_ts_us(out, shifted(event.ts_ns));
          out << R"(,"args":{"value":)" << event.payload << "}}";
          break;
        case TraceEventKind::kInstant:
          sink.prefix();
          out << R"({"ph":"i","s":"t","name":")" << name << R"(","pid":)"
              << pid << R"(,"tid":)" << thread.tid << R"(,"ts":)";
          put_ts_us(out, shifted(event.ts_ns));
          out << R"(,"args":{"arg":)" << event.arg << R"(,"payload":)"
              << event.payload << "}}";
          break;
      }
    }
  }
}

/// A dump's wall−mono offset: the last anchor pair of any thread (all
/// threads share one steady clock, so any thread's pair will do).
bool dump_wall_offset(const TraceDump& dump, std::int64_t& offset) {
  for (const auto& thread : dump.threads) {
    DecodeStats stats;
    (void)decode_thread(thread, &stats);
    if (stats.has_wall_offset) {
      offset = stats.wall_minus_mono_ns;
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<DecodedEvent> ThreadDecoder::decode(const TraceRecord& record) {
  const auto event = static_cast<TraceEvent>(record.event);
  if (event == TraceEvent::kRingGap) {
    // Dated where the surviving stream left off; the records after it have
    // no base until the next anchor.
    if (!anchored_) return std::nullopt;
    anchored_ = false;
    return DecodedEvent{ts_ns_, event, record.arg, record.payload};
  }
  if (event == TraceEvent::kTimeSync) {
    ts_ns_ = record.payload;
    anchored_ = true;
  } else if (!anchored_) {
    ++stats_.skipped_prefix;  // overwritten anchor: bounded undecodable prefix
    return std::nullopt;
  } else {
    ts_ns_ += record.ts_delta;
  }
  if (event == TraceEvent::kWallClockSync) {
    // Later pairs win (closest to the records that survive the ring).
    stats_.has_wall_offset = true;
    stats_.wall_minus_mono_ns = static_cast<std::int64_t>(record.payload) -
                                static_cast<std::int64_t>(ts_ns_);
  }
  return DecodedEvent{ts_ns_, event, record.arg, record.payload};
}

std::optional<Slice> SlicePairer::pair(const DecodedEvent& event) {
  if (event.event == TraceEvent::kRingGap) {
    // An end after the gap must not close a begin from before it.
    for (auto& open : open_) open.clear();
    return std::nullopt;
  }
  switch (trace_event_kind(event.event)) {
    case TraceEventKind::kBegin:
      open_[static_cast<std::size_t>(slice_end(event.event))].push_back(event);
      return std::nullopt;
    case TraceEventKind::kEnd: {
      auto& open = open_[static_cast<std::size_t>(event.event)];
      if (open.empty()) return std::nullopt;
      const Slice slice{open.back(), event.ts_ns};
      open.pop_back();
      return slice;
    }
    default:
      return std::nullopt;
  }
}

std::vector<DecodedEvent> decode_thread(const ThreadTrace& thread,
                                        DecodeStats* stats) {
  std::vector<DecodedEvent> events;
  events.reserve(thread.records.size());
  ThreadDecoder decoder;
  for (const auto& record : thread.records) {
    // The anchor pair is consumed, not surfaced as timeline events.
    const auto event = decoder.decode(record);
    if (event && event->event != TraceEvent::kTimeSync &&
        event->event != TraceEvent::kWallClockSync) {
      events.push_back(*event);
    }
  }
  if (stats != nullptr) *stats = decoder.stats();
  return events;
}

void write_perfetto_json(std::ostream& out, const TraceDump& dump) {
  out << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [";
  EventSink sink{out};
  write_dump_events(sink, dump, dump.pid != 0 ? dump.pid : 1, 0);
  out << "\n]\n}\n";
}

void write_perfetto_json(std::ostream& out,
                         const std::vector<TraceDump>& dumps) {
  // Wall-clock alignment: every process's records are monotonic-clock
  // timestamps with a process-private origin. Each dump's anchor pairs give
  // wall − mono for that process; shifting process i by (offset_i −
  // min_offset) renders all of them on one coherent timeline while keeping
  // the earliest process unshifted (timestamps stay small and positive).
  std::vector<std::int64_t> offsets(dumps.size(), 0);
  bool all_have_offsets = !dumps.empty();
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    if (!dump_wall_offset(dumps[i], offsets[i])) all_have_offsets = false;
  }
  std::int64_t min_offset = 0;
  if (all_have_offsets) {
    min_offset = offsets[0];
    for (const std::int64_t o : offsets) {
      if (o < min_offset) min_offset = o;
    }
  }

  out << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [";
  EventSink sink{out};
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    const std::uint64_t pid =
        dumps[i].pid != 0 ? dumps[i].pid : static_cast<std::uint64_t>(i + 1);
    const std::int64_t shift =
        all_have_offsets ? offsets[i] - min_offset : 0;
    write_dump_events(sink, dumps[i], pid, shift);
  }
  out << "\n]\n}\n";
}

const char* trace_load_status_name(TraceLoadStatus status) {
  switch (status) {
    case TraceLoadStatus::kOk: return "ok";
    case TraceLoadStatus::kIoError: return "io_error";
    case TraceLoadStatus::kBadMagic: return "bad_magic";
    case TraceLoadStatus::kTruncated: return "truncated";
    case TraceLoadStatus::kCorruptHeader: return "corrupt_header";
  }
  return "unknown";
}

void save_trace_dump(const std::string& path, const TraceDump& dump) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace dump: cannot open " + path);
  out.write(kMagic.data(), kMagic.size());
  // Extended header: sentinel, version, process identity. Readers of the
  // legacy layout saw a thread count here; the sentinel can never be one.
  put_u64(out, kProcessHeaderSentinel);
  put_u64(out, kContainerVersion);
  put_u64(out, dump.pid);
  put_u64(out, dump.process_name.size());
  out.write(dump.process_name.data(),
            static_cast<std::streamsize>(dump.process_name.size()));
  put_u64(out, dump.threads.size());
  for (const auto& thread : dump.threads) {
    put_u64(out, thread.name.size());
    out.write(thread.name.data(),
              static_cast<std::streamsize>(thread.name.size()));
    put_u64(out, thread.tid);
    put_u64(out, thread.dropped);
    put_u64(out, thread.records.size());
    for (const auto& record : thread.records) {
      put_u64(out, pack_lo(record));
      put_u64(out, pack_hi(record));
    }
  }
  if (out.flush(); !out) {
    throw std::runtime_error("trace dump: write failed: " + path);
  }
}

TraceLoadStatus load_trace_dump(const std::string& path, TraceDump& out) {
  out = TraceDump{};
  // Read the whole file up front: the parse below validates every claimed
  // length against the REAL byte count, so hostile headers can neither walk
  // past the end nor force allocations the file cannot back.
  std::vector<unsigned char> bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return TraceLoadStatus::kIoError;
    const std::streamoff size = in.tellg();
    if (size < 0) return TraceLoadStatus::kIoError;
    in.seekg(0);
    try {
      bytes.resize(static_cast<std::size_t>(size));
    } catch (...) {
      return TraceLoadStatus::kIoError;  // file larger than memory
    }
    if (!bytes.empty()) {
      in.read(reinterpret_cast<char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
      if (!in) return TraceLoadStatus::kIoError;
    }
  }

  ByteReader reader{bytes.data(), bytes.size(), 0};
  if (reader.remaining() < kMagic.size() ||
      std::memcmp(reader.data, kMagic.data(), kMagic.size()) != 0) {
    return TraceLoadStatus::kBadMagic;
  }
  reader.pos = kMagic.size();

  std::uint64_t first = 0;
  if (!reader.read_u64(first)) return TraceLoadStatus::kTruncated;
  std::uint64_t threads = 0;
  if (first == kProcessHeaderSentinel) {
    std::uint64_t version = 0;
    if (!reader.read_u64(version)) return TraceLoadStatus::kTruncated;
    if (version != kContainerVersion) return TraceLoadStatus::kCorruptHeader;
    if (!reader.read_u64(out.pid)) return TraceLoadStatus::kTruncated;
    std::uint64_t name_len = 0;
    if (!reader.read_u64(name_len)) return TraceLoadStatus::kTruncated;
    if (name_len > kMaxName) return TraceLoadStatus::kCorruptHeader;
    if (!reader.read_string(out.process_name, name_len)) {
      return TraceLoadStatus::kTruncated;
    }
    if (!reader.read_u64(threads)) return TraceLoadStatus::kTruncated;
  } else {
    threads = first;  // legacy layout: thread count directly after magic
  }
  if (threads > kMaxThreads) return TraceLoadStatus::kCorruptHeader;

  for (std::uint64_t t = 0; t < threads; ++t) {
    ThreadTrace thread;
    std::uint64_t name_len = 0;
    if (!reader.read_u64(name_len)) return TraceLoadStatus::kTruncated;
    if (name_len > kMaxName) return TraceLoadStatus::kCorruptHeader;
    if (!reader.read_string(thread.name, name_len)) {
      return TraceLoadStatus::kTruncated;
    }
    if (!reader.read_u64(thread.tid)) return TraceLoadStatus::kTruncated;
    if (!reader.read_u64(thread.dropped)) return TraceLoadStatus::kTruncated;
    std::uint64_t records = 0;
    if (!reader.read_u64(records)) return TraceLoadStatus::kTruncated;
    // The record section is 16 bytes per record; a count the remaining
    // bytes cannot back is rejected BEFORE the reserve, so an oversized
    // claim costs nothing.
    if (records > reader.remaining() / 16) return TraceLoadStatus::kTruncated;
    thread.records.reserve(static_cast<std::size_t>(records));
    for (std::uint64_t r = 0; r < records; ++r) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      if (!reader.read_u64(lo) || !reader.read_u64(hi)) {
        return TraceLoadStatus::kTruncated;
      }
      thread.records.push_back(unpack_record(lo, hi));
    }
    out.threads.push_back(std::move(thread));
  }
  return TraceLoadStatus::kOk;
}

TraceDump load_trace_dump(const std::string& path) {
  TraceDump dump;
  const TraceLoadStatus status = load_trace_dump(path, dump);
  if (status != TraceLoadStatus::kOk) {
    throw std::runtime_error(std::string("trace dump: ") +
                             trace_load_status_name(status) + ": " + path);
  }
  return dump;
}

LogHistogram slice_latency_histogram(const TraceDump& dump, TraceEvent begin,
                                     SliceFold fold) {
  LogHistogram histogram;
  for (const auto& thread : dump.threads) {
    SlicePairer pairer;
    for (const auto& event : decode_thread(thread)) {
      const auto slice = pairer.pair(event);
      if (!slice || slice->begin.event != begin) continue;
      std::uint64_t duration = slice->duration_ns();
      std::uint64_t samples = 1;
      if (fold != SliceFold::kPerSlice && slice->begin.payload > 1) {
        duration /= slice->begin.payload;
        if (fold == SliceFold::kEveryUnit) samples = slice->begin.payload;
      }
      histogram.record(duration, samples);
    }
  }
  return histogram;
}

}  // namespace ofmtl::obs
