// Multi-bit trie (MBT) with the label method — the paper's LPM structure
// (Section IV.B). A 16-bit field partition is searched over a configurable
// stride vector (default 3 levels, per the authors' ICC'14 stride study);
// each level lives in its own memory block and pipeline stage (Section V.A).
//
// Node data is exactly what the paper costs out: child pointer + label +
// flag bit, with a different pointer width per level ("each level node
// requires different child pointer sizes"). Queries read only these level
// arrays plus one in-level parent link per stored prefix, so every matching
// prefix is reachable without any derived query structure (see
// docs/ARCHITECTURE.md, "Trie queries: the parent-chain invariant").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/label.hpp"
#include "mem/memory_model.hpp"
#include "net/prefix.hpp"

namespace ofmtl {

/// How allocated-but-empty child-block slots are charged.
enum class TrieStorage : std::uint8_t {
  kSparse,      ///< count only non-empty entries (label or child present)
  kArrayBlock,  ///< count every slot of every allocated block
};

[[nodiscard]] std::string_view to_string(TrieStorage policy);

/// Per-level statistics of a built trie.
struct TrieLevelStats {
  std::size_t blocks = 0;            ///< allocated child blocks
  std::size_t allocated_entries = 0; ///< blocks * 2^stride
  std::size_t stored_nodes = 0;      ///< non-empty entries (label or child)
  std::size_t labelled_nodes = 0;    ///< entries with the flag bit set
};

/// Bit layout of one node at one level.
struct TrieNodeLayout {
  unsigned pointer_bits = 0;
  unsigned label_bits = 0;
  unsigned flag_bits = 1;
  [[nodiscard]] unsigned node_bits() const {
    return pointer_bits + label_bits + flag_bits;
  }
};

/// The default 3-level distribution over a 16-bit partition. L1 stride 5
/// matches the paper's observation that L1 never exceeds 32 stored nodes.
[[nodiscard]] std::vector<unsigned> default_strides16();

class MultibitTrie {
 public:
  /// `width` = key width in bits (<= 64); `strides` must sum to `width`.
  MultibitTrie(unsigned width, std::vector<unsigned> strides);

  /// Convenience: 16-bit partition trie with the default 5/5/6 strides.
  [[nodiscard]] static MultibitTrie partition16() {
    return MultibitTrie{16, default_strides16()};
  }

  /// Insert (or re-insert) a prefix with a label. Re-inserting an existing
  /// prefix with the same label is a no-op apart from write counting. Writes
  /// only the prefix's expansion cells and the parent links of the prefixes
  /// it covers in the same block, so the cost is independent of table size.
  void insert(const Prefix& prefix, Label label);

  /// Remove a prefix; its cells fall back to its in-level parent (the
  /// next-longest stored prefix ending in the same level). Returns whether
  /// the prefix was present.
  bool remove(const Prefix& prefix);

  /// Labels of all stored prefixes matching `key`, longest first (the label
  /// set the index-calculation stage consumes; its front is the longest
  /// match).
  void lookup_all(std::uint64_t key, std::vector<Label>& out) const;

  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] const std::vector<unsigned>& strides() const { return strides_; }
  [[nodiscard]] std::size_t level_count() const { return strides_.size(); }
  [[nodiscard]] std::size_t prefix_count() const { return prefixes_.size(); }

  /// --- memory-cost surface (Figs. 2, 3, 4) ---
  [[nodiscard]] TrieLevelStats level_stats(std::size_t level) const;
  [[nodiscard]] std::size_t stored_nodes(TrieStorage policy) const;
  [[nodiscard]] std::size_t stored_nodes(std::size_t level, TrieStorage policy) const;

  /// Node layout per level. `label_bits` covers the label space shared by
  /// this trie's encoder (callers may pass a worst-case shared width);
  /// pointers address child blocks of the next level, sized by
  /// `pointer_capacity_blocks` if nonzero, else by the as-built block count.
  [[nodiscard]] std::vector<TrieNodeLayout> layouts(
      unsigned label_bits, std::size_t pointer_capacity_blocks = 0) const;

  [[nodiscard]] std::uint64_t level_bits(std::size_t level, TrieStorage policy,
                                         unsigned label_bits) const;
  [[nodiscard]] std::uint64_t total_bits(TrieStorage policy,
                                         unsigned label_bits) const;
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& name,
                                                TrieStorage policy,
                                                unsigned label_bits) const;

  /// --- update-cost surface (Fig. 5) ---
  /// Entry writes performed since construction (block allocations, label
  /// stores, fallback rewrites). Each write is one update word = 2 cycles.
  [[nodiscard]] std::uint64_t write_count() const { return writes_; }

  /// Writes that inserting `prefix` would perform *right now* (without
  /// mutating): used to cost label-less (per-rule, duplicated) updates.
  [[nodiscard]] std::uint64_t insert_cost(const Prefix& prefix) const;

 private:
  /// One stored prefix, held by the level it ends in.
  struct PrefixNode {
    Label label = kNoLabel;
    /// In-level parent: the next-shorter stored prefix that covers this one
    /// and ends in the same level, or -1. On the free list: the next free
    /// node.
    std::int32_t parent = -1;
    std::uint8_t plen = 0;
  };

  /// One node of the paper's level array: child pointer + label. `prefix`
  /// names the longest stored prefix covering this cell that ends in this
  /// level (the flag bit is `prefix >= 0`); its parent chain lists the
  /// shorter ones.
  struct Entry {
    std::int32_t child = -1;   // block index at the next level
    std::int32_t prefix = -1;  // index into Level::nodes
  };

  struct Level {
    unsigned stride = 0;
    unsigned cum_before = 0;   // bits consumed before this level
    std::vector<Entry> entries;
    std::size_t blocks = 0;
    std::vector<PrefixNode> nodes;
    std::int32_t free_nodes = -1;  // head of the free list threaded via parent
  };

  /// The cells a prefix expands to: `fan` consecutive entries from `first`
  /// in level `level`.
  struct Expansion {
    std::size_t level = 0;
    std::size_t first = 0;
    std::size_t fan = 0;
  };

  [[nodiscard]] std::size_t entry_index(const Level& level, std::size_t block,
                                        std::uint64_t chunk) const {
    return block * (std::size_t{1} << level.stride) + chunk;
  }
  /// Index of the cell `key` selects in `block` of `level`.
  [[nodiscard]] std::size_t key_cell(const Level& level, std::size_t block,
                                     std::uint64_t key) const {
    return entry_index(level, block,
                       (key >> (width_ - level.cum_before - level.stride)) &
                           low_mask(level.stride));
  }
  std::int32_t allocate_block(std::size_t level_index);
  void check_prefix(const Prefix& prefix) const;
  /// Walk to the block `prefix` ends in, allocating missing blocks on the
  /// way (one pointer write each), and return its expansion cells.
  Expansion expand(const Prefix& prefix);
  /// Store a new prefix node for `prefix` in its level and link it between
  /// its in-level parent and the stored prefixes it covers.
  std::int32_t link_new(const Expansion& span, unsigned len, Label label);
  /// Append the labels of every stored prefix of `key` ending at or below
  /// `level_index`, reached through `block`, longest first.
  void append_matches(std::size_t level_index, std::size_t block,
                      std::uint64_t key, std::vector<Label>& out) const;

  unsigned width_;
  std::vector<unsigned> strides_;
  std::vector<Level> levels_;
  /// Update-side index: (len, value) -> node in the level the prefix ends in.
  std::map<std::pair<unsigned, std::uint64_t>, std::int32_t> prefixes_;
  std::uint64_t writes_ = 0;
};

/// Worst-case-shared node layouts across several tries (the paper sizes
/// pointer fields "determined by the worst case (lower trie)").
[[nodiscard]] std::vector<TrieNodeLayout> uniform_layouts(
    const std::vector<const MultibitTrie*>& tries, unsigned label_bits);

}  // namespace ofmtl
