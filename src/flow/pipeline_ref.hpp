// Reference OpenFlow v1.3 multi-table pipeline executor (linear-search
// tables). Implements the Goto-Table / Write-Metadata / action-set semantics
// the accelerated architecture must reproduce exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flow/flow_table.hpp"
#include "flow/group_table.hpp"

namespace ofmtl {

/// Final fate of a processed packet.
enum class Verdict : std::uint8_t {
  kForwarded,     ///< at least one Output action executed
  kDropped,       ///< empty/cleared action set or explicit drop
  kToController,  ///< table miss — "send to controller" (Section IV.C)
};

[[nodiscard]] std::string to_string(Verdict verdict);

/// Trace of one packet's trip through the pipeline.
struct ExecutionResult {
  Verdict verdict = Verdict::kDropped;
  std::vector<std::uint32_t> output_ports;       ///< from executed Output actions
  std::vector<FlowEntryId> matched_entries;      ///< per visited table
  std::vector<std::uint8_t> visited_tables;
  PacketHeader final_header;                     ///< after Set-Field rewrites

  friend bool operator==(const ExecutionResult&, const ExecutionResult&) = default;

  /// Equivalence that ignores the diagnostic trace (used when comparing the
  /// reference executor with the accelerated pipeline).
  [[nodiscard]] bool same_forwarding(const ExecutionResult& other) const {
    return verdict == other.verdict && output_ports == other.output_ports &&
           matched_entries == other.matched_entries;
  }
};

/// Table-walk engine shared by the reference pipeline and the accelerated
/// decomposition pipeline: both provide per-table lookup and get identical
/// Goto-Table / action-set / metadata semantics (so equivalence tests compare
/// only the lookup structures, not two executor implementations).
class TableLookupSource {
 public:
  virtual ~TableLookupSource() = default;
  [[nodiscard]] virtual std::size_t source_table_count() const = 0;
  [[nodiscard]] virtual const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const = 0;
  /// Batched per-table lookup: out[i] = match for *headers[i]. The default
  /// degenerates to per-packet source_lookup; accelerated sources override
  /// it with an interleaved/prefetching implementation.
  virtual void source_lookup_batch(std::size_t table,
                                   std::span<const PacketHeader* const> headers,
                                   std::span<const FlowEntry*> out) const {
    for (std::size_t i = 0; i < headers.size(); ++i) {
      out[i] = source_lookup(table, *headers[i]);
    }
  }
  /// Group table for resolving Group actions; nullptr = no groups.
  [[nodiscard]] virtual const GroupTable* source_groups() const {
    return nullptr;
  }
};

namespace detail {

/// The per-packet action set accumulated by Write-Actions and executed when
/// the pipeline ends (OpenFlow 5.10). Later writes of the same action type
/// overwrite earlier ones; we keep the simplified rule "one Output, the last
/// one written", plus ordered Set-Field rewrites.
struct ActionSet {
  std::optional<std::uint32_t> output;
  std::optional<GroupId> group;
  std::vector<SetFieldAction> set_fields;
  bool dropped = false;

  void write(const Action& action);
  /// Empties the set but keeps set_fields' capacity (allocation-free reuse).
  void clear() {
    output.reset();
    group.reset();
    set_fields.clear();
    dropped = false;
  }
};

}  // namespace detail

/// One packet's in-flight trip through the tables, decomposed into steps so
/// a batch executor can advance many packets through the same table stage
/// together. Writes into a caller-owned ExecutionResult whose vectors are
/// cleared (capacity kept) on begin — a reused PacketRun + ExecutionResult
/// pair performs no steady-state allocations.
class PacketRun {
 public:
  /// Reset onto a fresh packet; `out` is cleared in place and borrowed until
  /// finish().
  void begin(const PacketHeader& header, ExecutionResult& out);

  /// Still walking tables (not ended, not missed)?
  [[nodiscard]] bool running() const { return state_ == State::kRunning; }
  [[nodiscard]] std::size_t table() const { return table_; }
  /// The header as currently rewritten (what the next table must match on).
  [[nodiscard]] const PacketHeader& current_header() const {
    return out_->final_header;
  }

  /// Record the visit to table() and apply its lookup outcome (`entry` or
  /// nullptr for a miss). Advances to the Goto-Table target or ends the run.
  void apply(const FlowEntry* entry);

  /// Execute the accumulated action set and finalize the verdict. No-op
  /// extras on a missed run (the miss verdict is already recorded).
  void finish(const TableLookupSource& source);

 private:
  enum class State : std::uint8_t { kEnded, kRunning, kMissed };
  detail::ActionSet action_set_;
  ExecutionResult* out_ = nullptr;
  std::size_t table_ = 0;
  State state_ = State::kEnded;
};

/// Reusable scratch for execute_tables_batch: per-packet runs plus the
/// frontier arrays regrouping packets by table stage.
struct ExecBatchContext {
  std::vector<PacketRun> runs;
  std::vector<const PacketHeader*> headers;
  std::vector<const FlowEntry*> entries;
  std::vector<std::uint32_t> lanes;  // frontier lane -> packet index
};

[[nodiscard]] ExecutionResult execute_tables(const TableLookupSource& source,
                                             const PacketHeader& header);

/// Batched table walk: packets advance table stage by table stage (Goto-Table
/// only moves forward), each stage resolved with one source_lookup_batch call
/// over every packet currently at that table. results[i] is rewritten in
/// place (vectors cleared, capacity kept) and is bitwise-identical to
/// execute_tables(source, headers[i]).
void execute_tables_batch(const TableLookupSource& source,
                          std::span<const PacketHeader> headers,
                          std::span<ExecutionResult> results,
                          ExecBatchContext& ctx);

/// The same walk over a subset of the batch: headers[lanes[j]] is classified
/// into results[lanes[j]], other lanes are left as they are. A caller that
/// has already answered some lanes (the flow cache) walks the rest in place,
/// without gathering headers or scattering results.
void execute_tables_batch(const TableLookupSource& source,
                          std::span<const PacketHeader> headers,
                          std::span<ExecutionResult> results,
                          std::span<const std::uint32_t> lanes,
                          ExecBatchContext& ctx);

/// Multi-table pipeline over reference flow tables.
class ReferencePipeline : public TableLookupSource {
 public:
  ReferencePipeline() = default;
  explicit ReferencePipeline(std::vector<FlowTable> tables)
      : tables_(std::move(tables)) {}

  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }
  [[nodiscard]] FlowTable& table(std::size_t index) { return tables_.at(index); }
  [[nodiscard]] const FlowTable& table(std::size_t index) const {
    return tables_.at(index);
  }
  void add_table(FlowTable table) { tables_.push_back(std::move(table)); }

  /// Process one packet starting at table 0.
  [[nodiscard]] ExecutionResult execute(const PacketHeader& header) const {
    return execute_tables(*this, header);
  }

  [[nodiscard]] std::size_t source_table_count() const override {
    return tables_.size();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return tables_[table].lookup(header);
  }
  [[nodiscard]] const GroupTable* source_groups() const override {
    return groups_;
  }

  /// Attach a group table (not owned) for resolving Group actions.
  void set_group_table(const GroupTable* groups) { groups_ = groups; }

 private:
  std::vector<FlowTable> tables_;
  const GroupTable* groups_ = nullptr;
};

}  // namespace ofmtl
