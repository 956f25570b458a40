#include "core_probe.hpp"

#include <algorithm>
#include <map>

#include "core/search_context.hpp"
#include "inputs.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

constexpr std::size_t kMinRounds = 5;
constexpr std::size_t kMaxRounds = 21;

/// Times every per-table batch lookup of the executor it is handed to, and
/// optionally keeps a copy of the headers that reached each table.
class TimedSource final : public TableLookupSource {
 public:
  explicit TimedSource(const MultiTableLookup& inner)
      : inner_(inner), table_ns_(inner.table_count(), 0),
        reached_(inner.table_count()) {}

  [[nodiscard]] std::size_t source_table_count() const override {
    return inner_.source_table_count();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return inner_.source_lookup(table, header);
  }
  void source_lookup_batch(std::size_t table,
                           std::span<const PacketHeader* const> headers,
                           std::span<const FlowEntry*> out) const override {
    const auto start = now_ns();
    inner_.source_lookup_batch(table, headers, out);
    table_ns_[table] += now_ns() - start;
    if (keep_headers_) {
      for (const auto* header : headers) reached_[table].push_back(*header);
    }
  }
  [[nodiscard]] const GroupTable* source_groups() const override {
    return inner_.source_groups();
  }

  void reset() { std::fill(table_ns_.begin(), table_ns_.end(), 0); }
  void keep_headers(bool keep) { keep_headers_ = keep; }
  [[nodiscard]] const std::vector<std::int64_t>& table_ns() const {
    return table_ns_;
  }
  [[nodiscard]] const std::vector<PacketHeader>& reached(std::size_t table) const {
    return reached_[table];
  }

 private:
  const MultiTableLookup& inner_;
  mutable std::vector<std::int64_t> table_ns_;
  mutable std::vector<std::vector<PacketHeader>> reached_;
  bool keep_headers_ = false;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

/// One field search of one table, over the headers that reached the table.
struct FieldPass {
  const FieldSearch* search;
  std::size_t algorithms;  // of the whole table (the context's row width)
  std::size_t slot_base;
  const std::vector<const PacketHeader*>* headers;
  std::string slug;
};

}  // namespace

std::string field_slug(FieldId field) {
  switch (field) {
    case FieldId::kInPort:
      return "in_port";
    case FieldId::kIpv4Src:
      return "ipv4_src";
    case FieldId::kIpv4Dst:
      return "ipv4_dst";
    case FieldId::kSrcPort:
      return "src_port";
    case FieldId::kDstPort:
      return "dst_port";
    case FieldId::kIpProto:
      return "ip_proto";
    case FieldId::kMetadata:
      return "metadata";
    default:
      return "field" + std::to_string(static_cast<int>(field));
  }
}

CoreSplit measure_core(const MultiTableLookup& tables,
                       std::span<const PacketHeader> headers,
                       std::int64_t budget_ns) {
  const std::size_t n = headers.size();
  CoreSplit split;
  split.packets = n;
  std::vector<ExecutionResult> plain(n);
  std::vector<ExecutionResult> decorated(n);
  ExecBatchContext ctx;
  TimedSource timed(tables);

  const auto execute_pass = [&](const TableLookupSource& source,
                                std::vector<ExecutionResult>& results) {
    const auto start = now_ns();
    for (std::size_t base = 0; base < n; base += kBatch) {
      const std::size_t count = std::min(kBatch, n - base);
      execute_tables_batch(source, headers.subspan(base, count),
                           std::span(results).subspan(base, count), ctx);
    }
    return static_cast<double>(now_ns() - start);
  };

  // Warm-up pass of each kind; the decorated one also records which
  // headers reach each table, for the field-search passes.
  (void)execute_pass(tables, plain);
  timed.keep_headers(true);
  (void)execute_pass(timed, decorated);
  timed.keep_headers(false);
  for (std::size_t i = 0; i < n; ++i) {
    if (!plain[i].same_forwarding(decorated[i])) ++split.mismatches;
  }

  std::vector<std::vector<const PacketHeader*>> reached(tables.table_count());
  std::vector<FieldPass> field_passes;
  for (std::size_t t = 0; t < tables.table_count(); ++t) {
    for (const auto& header : timed.reached(t)) reached[t].push_back(&header);
    const auto& table = tables.table(t);
    std::size_t slot_base = 0;
    for (const auto& search : table.field_searches()) {
      field_passes.push_back({&search, table.index().algorithm_count(), slot_base,
                              &reached[t], field_slug(search.field())});
      slot_base += search.algorithm_count();
    }
  }
  SearchContext search_ctx;
  const auto field_pass = [&](const FieldPass& pass) {
    const auto start = now_ns();
    const std::span<const PacketHeader* const> all(*pass.headers);
    for (std::size_t base = 0; base < all.size(); base += kBatch) {
      const std::size_t count = std::min(kBatch, all.size() - base);
      search_ctx.begin(count, pass.algorithms);
      pass.search->search_batch(all.subspan(base, count), search_ctx,
                                pass.slot_base);
    }
    return static_cast<double>(now_ns() - start);
  };
  for (const auto& pass : field_passes) (void)field_pass(pass);

  std::vector<double> execute_ns, decorated_ns, apply_ns, ratios;
  std::vector<std::vector<double>> table_ns(tables.table_count());
  std::vector<std::vector<double>> field_ns(field_passes.size());
  const auto deadline = now_ns() + budget_ns;
  const double per_packet = 1.0 / static_cast<double>(n);
  while (split.rounds < kMaxRounds &&
         (split.rounds < kMinRounds || now_ns() < deadline)) {
    // The two walks swap order every round, so that neither always runs
    // on the caches the field passes of the previous round left behind.
    const bool plain_first = split.rounds % 2 == 0;
    if (plain_first) execute_ns.push_back(execute_pass(tables, plain) * per_packet);
    timed.reset();
    const double total = execute_pass(timed, decorated) * per_packet;
    if (!plain_first) execute_ns.push_back(execute_pass(tables, plain) * per_packet);
    decorated_ns.push_back(total);
    ratios.push_back(total / execute_ns.back());
    double lookups = 0;
    for (std::size_t t = 0; t < table_ns.size(); ++t) {
      const double ns = static_cast<double>(timed.table_ns()[t]) * per_packet;
      table_ns[t].push_back(ns);
      lookups += ns;
    }
    apply_ns.push_back(total - lookups);
    for (std::size_t f = 0; f < field_passes.size(); ++f) {
      field_ns[f].push_back(field_pass(field_passes[f]) * per_packet);
    }
    ++split.rounds;
  }

  split.execute_ns = median(execute_ns);
  split.decorated_ns = median(decorated_ns);
  split.decorated_ratio = median(ratios);
  split.apply_ns = median(apply_ns);
  for (const auto& samples : table_ns) split.table_ns.push_back(median(samples));
  std::map<std::string, double> by_field;
  for (std::size_t f = 0; f < field_passes.size(); ++f) {
    by_field[field_passes[f].slug] += median(field_ns[f]);
  }
  split.field_ns.assign(by_field.begin(), by_field.end());
  return split;
}

}  // namespace perfbench
