// Tree Bitmap (Eatherton/Srinivasan/Dittia) — the compressed multi-bit-trie
// node layout: one node per stride carries an *internal* bitmap marking the
// prefixes ending inside the node, an *external* bitmap marking which child
// subtrees exist, and two base pointers; children and results are stored
// contiguously and addressed by popcount. The hardware-honest answer to
// "what does the sparse storage policy cost per node" — used by the node-
// layout ablation against the paper's array-block MBT.
//
// Build-once structure: constructed from a complete prefix set (updates
// rebuild), as the contiguous child arrays are not incrementally mutable.
// A scalar reference implementation: it feeds the memory ablation, not the
// data path, so lookup() is its only query form.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/label.hpp"
#include "mem/memory_model.hpp"
#include "net/prefix.hpp"

namespace ofmtl {

class TreeBitmapTrie {
 public:
  /// Build from a prefix/label set. `strides` must sum to `width`; each
  /// stride <= 6 (bitmaps of at most 2^6 = 64 bits). Duplicate prefixes:
  /// last label wins.
  TreeBitmapTrie(unsigned width, std::vector<unsigned> strides,
                 std::vector<std::pair<Prefix, Label>> prefixes);

  /// Longest-prefix match: one node per level, each probing its internal
  /// bitmap longest length first.
  [[nodiscard]] std::optional<Label> lookup(std::uint64_t key) const;

  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t node_count(std::size_t level) const;
  [[nodiscard]] std::size_t result_count() const { return results_.size(); }

  /// Bits of one node at `level`: internal bitmap (2^s - 1) + external
  /// bitmap (2^s, absent at the last level) + child and result pointers.
  [[nodiscard]] unsigned node_bits(std::size_t level, unsigned label_bits) const;
  [[nodiscard]] std::uint64_t total_bits(unsigned label_bits) const;
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& name,
                                                unsigned label_bits) const;

 private:
  struct Node {
    U128 internal{};             // bit (2^l - 1 + value) set: prefix ends here
                                 // (128-bit: last-level stride 6 needs 127)
    std::uint64_t external = 0;  // bit c set: child for chunk value c
    std::uint32_t child_base = 0;
    std::uint32_t result_base = 0;
    std::uint8_t level = 0;
  };

  /// Recursive construction; returns the index of the built node.
  std::uint32_t build(std::size_t level, std::uint64_t path,
                      const std::vector<std::pair<Prefix, Label>>& prefixes);

  unsigned width_;
  std::vector<unsigned> strides_;
  std::vector<unsigned> cum_before_;
  std::vector<Node> nodes_;
  std::vector<Label> results_;
  // Child indirection: child_base points into this dense table, which holds
  // node indices. (Hardware lays children out contiguously instead; the
  // table models the same popcount addressing without relocation logic.)
  std::vector<std::uint32_t> child_table_;
};

}  // namespace ofmtl
