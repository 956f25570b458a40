// The proposed Multiple Table Lookup architecture end to end (Fig. 1): a
// chain of decomposed lookup tables executed under OpenFlow multi-table
// semantics. Drop-in equivalent of ReferencePipeline — same ExecutionResult,
// same Goto-Table/metadata/action-set behaviour — but each table lookup runs
// parallel single-field searches + index calculation instead of linear
// search.
//
// Each pipeline also keeps a bounded delta log of its own mutations, stamped
// with the left-right publish epoch that made them and indexed by hash (the
// removed entry, or the inserted rule's most selective masked test), so the
// flow cache can ask still_valid() in a few probes whether a result cached
// under an older epoch survives them.
// While an OpLog is attached, the pipeline also records its mutations as
// data, so the left-right publisher can replay one publish onto the other
// side.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/lookup_table.hpp"
#include "flow/pipeline_ref.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

enum class FlowModCommand : std::uint8_t { kAdd, kModify, kDelete };

/// Outcome of MultiTableLookup::apply.
enum class FlowModStatus : std::uint8_t {
  kOk,
  kBadTable,        ///< no table with that index
  kBadMatch,        ///< a constraint LookupTable::accepts rejects
  kBadGoto,         ///< Goto-Table not to a later table of this pipeline
  kBadAction,       ///< a Set-Field value wider than its field
  kDuplicateEntry,  ///< add of an id already live in the table
  kUnknownEntry,    ///< modify or delete of an id not live in the table
};

class MultiTableLookup : public TableLookupSource {
 public:
  MultiTableLookup() = default;
  explicit MultiTableLookup(std::vector<LookupTable> tables)
      : tables_(std::move(tables)) {}

  /// Compile every table of a reference pipeline (the equivalence target).
  [[nodiscard]] static MultiTableLookup compile(const ReferencePipeline& reference,
                                                FieldSearchConfig config = {});

  /// Append a table. Cached results from before it are not revalidated,
  /// and an attached op log cannot describe it.
  void add_table(LookupTable table) {
    tables_.push_back(std::move(table));
    raise_log_floor();
    if (recorder_ != nullptr) recorder_->mark_incomplete();
  }

  /// Deep copy (table-by-table recompile): independent lookup structures,
  /// identical lookup behaviour, and the same delta log; no op log is
  /// attached to the copy. The parallel runtime replicates its snapshot
  /// instances through this. Exception: the group table is externally
  /// owned and only pointer-copied — it is NOT snapshot-isolated, so keep
  /// it immutable while clones (or the runtime) are live.
  [[nodiscard]] MultiTableLookup clone() const {
    MultiTableLookup copy;
    for (const auto& table : tables_) copy.add_table(table.clone());
    copy.set_group_table(groups_);
    copy.log_ = log_;
    return copy;
  }
  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }
  [[nodiscard]] const LookupTable& table(std::size_t index) const {
    return tables_.at(index);
  }

  /// The controller channel of Section V.B, and the only way a live
  /// pipeline's entries change: validate one flow-mod, then apply it. Every
  /// check runs before any mutation, so anything but kOk leaves the tables
  /// and the delta log as they were; a kOk mod logs its remove and/or insert
  /// under the current log epoch, and into the attached op log. Delete and
  /// Modify name the entry by id; Modify replaces it whole. Never throws on
  /// the mod's content.
  [[nodiscard]] FlowModStatus apply(FlowModCommand command, std::size_t table,
                                    const FlowEntry& entry);
  [[nodiscard]] bool contains_entry(std::size_t table, FlowEntryId id) const {
    return tables_.at(table).contains(id);
  }

  /// Process one packet starting at table 0.
  [[nodiscard]] ExecutionResult execute(const PacketHeader& header) const {
    return execute_tables(*this, header);
  }

  /// Process the listed lanes of a batch: results[lanes[j]] is rewritten in
  /// place (vectors cleared, capacity kept) and is bitwise-identical to
  /// execute(headers[lanes[j]]); other lanes are left as they are. Table
  /// stages run batched — every packet at a table is looked up with one
  /// interleaved, prefetching lookup_batch call. `ctx` is caller-owned
  /// scratch; steady-state calls are allocation-free.
  void execute_batch(std::span<const PacketHeader> headers,
                     std::span<ExecutionResult> results,
                     std::span<const std::uint32_t> lanes,
                     ExecBatchContext& ctx) const {
    execute_tables_batch(*this, headers, results, lanes, ctx);
  }

  [[nodiscard]] std::size_t source_table_count() const override {
    return tables_.size();
  }
  [[nodiscard]] const FlowEntry* source_lookup(
      std::size_t table, const PacketHeader& header) const override {
    return tables_[table].lookup(header);
  }
  void source_lookup_batch(std::size_t table,
                           std::span<const PacketHeader* const> headers,
                           std::span<const FlowEntry*> out) const override;
  [[nodiscard]] const GroupTable* source_groups() const override {
    return groups_;
  }

  /// Attach a group table (not owned) for resolving Group actions. Cached
  /// results from before it are not revalidated.
  void set_group_table(const GroupTable* groups);

  /// --- Op log (left-right catch-up) ---
  /// The mutations of one publish as data, in order: every kOk apply and
  /// every set_group_table made while the log is attached. Slots are
  /// reused, so recording a publish no larger than an earlier one copies
  /// into warmed slots and does not allocate.
  class OpLog {
   public:
    /// Forget the ops (keeping the slots) and become complete again.
    void clear() {
      size_ = 0;
      complete_ = true;
    }
    /// Record that a mutation the log cannot describe was made (add_table,
    /// a whole-pipeline assignment): replaying it would not reproduce it.
    void mark_incomplete() { complete_ = false; }
    [[nodiscard]] bool complete() const { return complete_; }

   private:
    friend class MultiTableLookup;
    struct Op {
      bool groups = false;  ///< set_group_table(group_table), not an apply
      FlowModCommand command = FlowModCommand::kAdd;
      std::size_t table = 0;
      FlowEntry entry;
      const GroupTable* group_table = nullptr;
    };
    Op& next_slot();

    std::vector<Op> ops_;
    std::size_t size_ = 0;
    bool complete_ = true;
  };

  /// Attach `log` (null detaches): later mutations are recorded into it.
  /// Returns the log attached until now, so a caller can tell whether the
  /// pipeline was replaced wholesale in between.
  OpLog* record_into(OpLog* log) { return std::exchange(recorder_, log); }
  /// Re-run a complete log's ops here, under the current log epoch, so the
  /// delta log gets the records the recording pipeline got. False when an
  /// apply does not return kOk: this pipeline has then run only part of
  /// the log. Records nothing itself.
  [[nodiscard]] bool replay(const OpLog& log);

  /// Aggregate memory report across tables (the Section V.A total).
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;

  /// Total update words written while building (label method).
  [[nodiscard]] std::uint64_t update_words() const;

  /// --- Delta log (flow-cache revalidation) ---
  /// Records one generation of the log holds. The log keeps two: when the
  /// newer is full, the older is dropped, raising the floor to its newest
  /// epoch, and an empty one takes the newer's place.
  static constexpr std::size_t kGenerationRecords = 2048;
  /// The most records the log remembers: every stamp older than the last
  /// kDeltaLogRecords records has fallen below the floor.
  static constexpr std::size_t kDeltaLogRecords = 2 * kGenerationRecords;
  /// Lead shapes plus unindexed inserts (those without a masked test) a
  /// generation holds before it is closed early: bounds the probes and
  /// scans of one still_valid.
  static constexpr std::size_t kGenerationShapes = 64;
  /// Range tests an insert without a masked test keeps. Testing a subset
  /// of a rule's fields over-approximates its matches, so fewer is still
  /// conservative.
  static constexpr std::size_t kMaxRangeTests = 4;

  /// Epoch that records logged from now on carry. The left-right publisher
  /// sets it to the epoch it is about to publish before each side-apply.
  void set_log_epoch(std::uint64_t epoch) { log_.epoch = epoch; }
  [[nodiscard]] std::uint64_t log_epoch() const { return log_.epoch; }
  /// Drop every record and move the log to `epoch`: results stamped before
  /// it no longer revalidate.
  void restart_log(std::uint64_t epoch);

  /// Whether `result`, produced for `key` by this pipeline as it stood at
  /// log epoch `stamp`, is still what execute(key) returns now. Answers
  /// false when a mutation logged after `stamp` might have changed the
  /// walk: a removed entry the walk matched, or an inserted rule whose
  /// lead test matches the key in a table the walk visited. Each check is
  /// a probe of a generation's epoch map, so the cost is one probe per
  /// visited table and per lead shape of a visited table, not one per
  /// record. False (conservatively) also when `stamp` is below the log's
  /// floor, or when the inserted rule's table saw a key rewritten by an
  /// earlier table's Apply-Actions Set-Field. Never answers true wrongly;
  /// see "The flow cache" in docs/ARCHITECTURE.md for the argument.
  [[nodiscard]] bool still_valid(const PacketHeader& key,
                                 const ExecutionResult& result,
                                 std::uint64_t stamp) const;

 private:
  /// One slot of a generation's epoch map: the 64-bit hash of a logged
  /// key, (table, id) for a removal or (table, field, mask, masked value)
  /// for an insert's lead test.
  struct EpochSlot {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;  ///< newest epoch logged under `key`
  };
  /// A masked compare of one field in one table that some logged insert
  /// led with; `seed` hashes (table, field, mask).
  struct LeadShape {
    U128 mask;
    std::uint64_t seed = 0;
    FieldId field = FieldId::kInPort;
    std::uint8_t table = 0;
  };
  /// An insert with no masked test (range-only or all-wildcard), kept with
  /// its ranges to be scanned.
  struct RangeTest {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    FieldId field = FieldId::kInPort;
  };
  struct RangeInsert {
    std::uint64_t epoch = 0;
    std::uint8_t table = 0;
    std::uint8_t tests = 0;
    std::array<RangeTest, kMaxRangeTests> range{};
  };
  /// One generation of the log: what it indexes only grows until the
  /// generation is dropped whole, so nothing is deleted or tombstoned.
  struct Generation {
    std::vector<std::uint8_t> tags;  ///< flat_hash.hpp tag per slot
    std::vector<EpochSlot> slots;    ///< sized on the first record
    std::vector<LeadShape> shapes;
    std::vector<RangeInsert> unindexed;
    std::vector<std::uint64_t> newest_insert;  ///< per table
    std::size_t records = 0;
    std::uint64_t newest = 0;  ///< newest epoch logged here

    void clear();
    void note(std::uint64_t key, std::uint64_t epoch);
    [[nodiscard]] std::uint64_t epoch_of(std::uint64_t key) const;
    [[nodiscard]] std::uint64_t newest_insert_of(std::size_t table) const {
      return table < newest_insert.size() ? newest_insert[table] : 0;
    }
  };
  struct DeltaLog {
    std::array<Generation, 2> generations;
    std::size_t current = 0;  ///< generation records go to
    std::uint64_t epoch = 0;  ///< stamp of records logged now
    std::uint64_t floor = 0;  ///< stamps below it do not revalidate
  };

  void log_removal(std::size_t table, FlowEntryId id);
  void log_insert(std::size_t table, const FlowEntry& entry);
  /// The generation the next record goes to, after dropping the older one
  /// if the current is full, or if `indexes_more` (a new shape or an
  /// unindexed insert) would take it past kGenerationShapes.
  Generation& generation_for(bool indexes_more);
  /// Whether a record of `generation` newer than `stamp` might change the
  /// walk; `rewritten_from` as still_valid computes it.
  [[nodiscard]] static bool changes_walk(const Generation& generation,
                                         const PacketHeader& key,
                                         const ExecutionResult& result,
                                         std::size_t rewritten_from,
                                         std::uint64_t stamp);
  /// Copy a kOk apply into the attached op log, if any.
  void record_op(FlowModCommand command, std::size_t table,
                 const FlowEntry& entry);
  void raise_log_floor() { log_.floor = log_.epoch; }

  std::vector<LookupTable> tables_;
  const GroupTable* groups_ = nullptr;
  DeltaLog log_;
  OpLog* recorder_ = nullptr;
};

}  // namespace ofmtl
