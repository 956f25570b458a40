#include "core/multibit_trie.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ofmtl {

std::string_view to_string(TrieStorage policy) {
  switch (policy) {
    case TrieStorage::kSparse: return "sparse";
    case TrieStorage::kArrayBlock: return "array-block";
  }
  throw std::logic_error("unknown TrieStorage");
}

std::vector<unsigned> default_strides16() { return {5, 5, 6}; }

MultibitTrie::MultibitTrie(unsigned width, std::vector<unsigned> strides)
    : width_(width), strides_(std::move(strides)) {
  if (width == 0 || width > 64) throw std::invalid_argument("bad trie width");
  const unsigned total = std::accumulate(strides_.begin(), strides_.end(), 0U);
  if (strides_.empty() || total != width_) {
    throw std::invalid_argument("strides must sum to key width");
  }
  for (const unsigned s : strides_) {
    if (s == 0 || s > 24) throw std::invalid_argument("stride out of range");
  }
  levels_.resize(strides_.size());
  unsigned cum = 0;
  for (std::size_t i = 0; i < strides_.size(); ++i) {
    levels_[i].stride = strides_[i];
    levels_[i].cum_before = cum;
    cum += strides_[i];
  }
  allocate_block(0);  // root block always exists
}

std::int32_t MultibitTrie::allocate_block(std::size_t level_index) {
  Level& level = levels_[level_index];
  const auto block = static_cast<std::int32_t>(level.blocks);
  level.entries.resize(level.entries.size() + (std::size_t{1} << level.stride));
  ++level.blocks;
  return block;
}

void MultibitTrie::check_prefix(const Prefix& prefix) const {
  if (prefix.width() != width_) {
    throw std::invalid_argument("prefix width mismatch");
  }
}

MultibitTrie::Expansion MultibitTrie::expand(const Prefix& prefix) {
  std::size_t block = 0;
  for (std::size_t li = 0;; ++li) {
    Level& level = levels_[li];
    if (prefix.length() <= level.cum_before + level.stride) {
      // The prefix ends within this level: controlled prefix expansion over
      // the remaining stride bits.
      const unsigned bits_here = prefix.length() - level.cum_before;
      const std::uint64_t base =
          bits_here == 0 ? 0
                         : prefix.slice(level.cum_before, bits_here)
                               << (level.stride - bits_here);
      return {li, entry_index(level, block, base),
              std::size_t{1} << (level.stride - bits_here)};
    }
    // Descend: this level's chunk is fully specified by the prefix.
    const std::uint64_t chunk = prefix.slice(level.cum_before, level.stride);
    const std::size_t index = entry_index(level, block, chunk);
    if (level.entries[index].child < 0) {
      level.entries[index].child = allocate_block(li + 1);
      ++writes_;  // pointer store
    }
    block = static_cast<std::size_t>(level.entries[index].child);
  }
}

std::int32_t MultibitTrie::link_new(const Expansion& span, unsigned len,
                                    Label label) {
  Level& level = levels_[span.level];
  auto& nodes = level.nodes;
  // Every chain through the first cell lists all stored prefixes covering
  // it in this level; the first one shorter than `len` covers the new prefix
  // too and is its parent.
  std::int32_t parent = level.entries[span.first].prefix;
  while (parent >= 0 && nodes[parent].plen >= len) {
    parent = nodes[parent].parent;
  }
  std::int32_t id = level.free_nodes;
  const PrefixNode node{label, parent, static_cast<std::uint8_t>(len)};
  if (id < 0) {
    id = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(node);
  } else {
    level.free_nodes = nodes[id].parent;
    nodes[id] = node;
  }
  // Longer prefixes inside the span that hung off `parent` now hang off the
  // new prefix, which sits between them.
  for (std::size_t cell = span.first; cell < span.first + span.fan; ++cell) {
    for (std::int32_t n = level.entries[cell].prefix;
         n >= 0 && nodes[n].plen > len; n = nodes[n].parent) {
      if (nodes[n].parent == parent) {
        nodes[n].parent = id;
        break;
      }
    }
  }
  return id;
}

void MultibitTrie::insert(const Prefix& prefix, Label label) {
  check_prefix(prefix);
  const unsigned len = prefix.length();
  const auto [it, inserted] =
      prefixes_.try_emplace({len, prefix.value64()}, -1);
  const Expansion span = expand(prefix);
  if (inserted) it->second = link_new(span, len, label);
  const std::int32_t id = it->second;
  Level& level = levels_[span.level];
  auto& nodes = level.nodes;
  for (std::size_t cell = span.first; cell < span.first + span.fan; ++cell) {
    Entry& entry = level.entries[cell];
    if (entry.prefix == id) {
      if (nodes[id].label != label) ++writes_;  // relabel in place
    } else if (entry.prefix < 0 || nodes[entry.prefix].plen < len) {
      entry.prefix = id;
      ++writes_;
    }
  }
  nodes[id].label = label;
}

std::uint64_t MultibitTrie::insert_cost(const Prefix& prefix) const {
  check_prefix(prefix);
  std::uint64_t cost = 0;
  std::size_t block = 0;
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const Level& level = levels_[li];
    const unsigned cum_after = level.cum_before + level.stride;
    if (prefix.length() > cum_after) {
      const std::uint64_t chunk = prefix.slice(level.cum_before, level.stride);
      const std::size_t index = entry_index(level, block, chunk);
      if (level.entries[index].child < 0) {
        // A fresh insert would write this pointer, one pointer per new block
        // below, and the expansion fan at the level the prefix ends in.
        cost += 1;
        unsigned cum = cum_after;
        for (std::size_t lj = li + 1; lj < levels_.size(); ++lj) {
          const unsigned s = levels_[lj].stride;
          if (prefix.length() > cum + s) {
            cost += 1;
            cum += s;
            continue;
          }
          cost += std::uint64_t{1} << (s - (prefix.length() - cum));
          return cost;
        }
        return cost;
      }
      block = static_cast<std::size_t>(level.entries[index].child);
      continue;
    }
    const unsigned bits_here = prefix.length() - level.cum_before;
    cost += std::uint64_t{1} << (level.stride - bits_here);
    return cost;
  }
  return cost;
}

bool MultibitTrie::remove(const Prefix& prefix) {
  check_prefix(prefix);
  const unsigned len = prefix.length();
  const auto it = prefixes_.find({len, prefix.value64()});
  if (it == prefixes_.end()) return false;
  const std::int32_t id = it->second;
  prefixes_.erase(it);

  // A stored prefix's path exists, so this allocates nothing.
  const Expansion span = expand(prefix);
  Level& level = levels_[span.level];
  auto& nodes = level.nodes;
  const std::int32_t parent = nodes[id].parent;
  for (std::size_t cell = span.first; cell < span.first + span.fan; ++cell) {
    Entry& entry = level.entries[cell];
    if (entry.prefix == id) {
      // Fallback: the longest remaining prefix covering the cell in this
      // level is the removed one's parent (shorter ones at earlier levels
      // stay on the lookup path).
      entry.prefix = parent;
      ++writes_;
      continue;
    }
    // Longer prefixes that hung off the removed one now hang off its parent.
    for (std::int32_t n = entry.prefix; n >= 0 && nodes[n].plen > len;
         n = nodes[n].parent) {
      if (nodes[n].parent == id) {
        nodes[n].parent = parent;
        break;
      }
    }
  }
  nodes[id].parent = level.free_nodes;
  level.free_nodes = id;
  return true;
}

void MultibitTrie::lookup_all(std::uint64_t key, std::vector<Label>& out) const {
  out.clear();
  append_matches(0, 0, key, out);
}

void MultibitTrie::append_matches(std::size_t level_index, std::size_t block,
                                  std::uint64_t key,
                                  std::vector<Label>& out) const {
  // Deeper levels first; then this cell's parent chain, which lists the
  // stored prefixes of `key` ending in this level, longest first.
  const Level& level = levels_[level_index];
  const Entry& entry = level.entries[key_cell(level, block, key)];
  if (entry.child >= 0) {
    append_matches(level_index + 1, static_cast<std::size_t>(entry.child), key,
                   out);
  }
  for (std::int32_t n = entry.prefix; n >= 0;
       n = level.nodes[static_cast<std::size_t>(n)].parent) {
    out.push_back(level.nodes[static_cast<std::size_t>(n)].label);
  }
}

TrieLevelStats MultibitTrie::level_stats(std::size_t level_index) const {
  const Level& level = levels_.at(level_index);
  TrieLevelStats stats;
  stats.blocks = level.blocks;
  stats.allocated_entries = level.entries.size();
  for (const Entry& entry : level.entries) {
    if (entry.prefix >= 0 || entry.child >= 0) ++stats.stored_nodes;
    if (entry.prefix >= 0) ++stats.labelled_nodes;
  }
  return stats;
}

std::size_t MultibitTrie::stored_nodes(std::size_t level,
                                       TrieStorage policy) const {
  const auto stats = level_stats(level);
  return policy == TrieStorage::kSparse ? stats.stored_nodes
                                        : stats.allocated_entries;
}

std::size_t MultibitTrie::stored_nodes(TrieStorage policy) const {
  std::size_t total = 0;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    total += stored_nodes(level, policy);
  }
  return total;
}

std::vector<TrieNodeLayout> MultibitTrie::layouts(
    unsigned label_bits, std::size_t pointer_capacity_blocks) const {
  std::vector<TrieNodeLayout> result(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    TrieNodeLayout& layout = result[i];
    layout.label_bits = label_bits;
    layout.flag_bits = 1;
    if (i + 1 < levels_.size()) {
      const std::size_t capacity =
          pointer_capacity_blocks != 0
              ? pointer_capacity_blocks
              : std::max<std::size_t>(levels_[i + 1].blocks, 1);
      // +1 reserves a null-pointer encoding.
      layout.pointer_bits = std::max(1U, ceil_log2(capacity + 1));
    }
  }
  return result;
}

std::uint64_t MultibitTrie::level_bits(std::size_t level, TrieStorage policy,
                                       unsigned label_bits) const {
  const auto layout = layouts(label_bits)[level];
  return stored_nodes(level, policy) *
         static_cast<std::uint64_t>(layout.node_bits());
}

std::uint64_t MultibitTrie::total_bits(TrieStorage policy,
                                       unsigned label_bits) const {
  std::uint64_t total = 0;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    total += level_bits(level, policy, label_bits);
  }
  return total;
}

mem::MemoryReport MultibitTrie::memory_report(const std::string& name,
                                              TrieStorage policy,
                                              unsigned label_bits) const {
  mem::MemoryReport report;
  const auto layout = layouts(label_bits);
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    report.add(name + ".L" + std::to_string(level + 1),
               stored_nodes(level, policy), layout[level].node_bits());
  }
  return report;
}

std::vector<TrieNodeLayout> uniform_layouts(
    const std::vector<const MultibitTrie*>& tries, unsigned label_bits) {
  if (tries.empty()) return {};
  std::vector<TrieNodeLayout> worst = tries.front()->layouts(label_bits);
  for (const MultibitTrie* trie : tries) {
    const auto layouts_i = trie->layouts(label_bits);
    if (layouts_i.size() != worst.size()) {
      throw std::invalid_argument("uniform_layouts: level-count mismatch");
    }
    for (std::size_t level = 0; level < worst.size(); ++level) {
      worst[level].pointer_bits =
          std::max(worst[level].pointer_bits, layouts_i[level].pointer_bits);
      worst[level].label_bits =
          std::max(worst[level].label_bits, layouts_i[level].label_bits);
    }
  }
  return worst;
}

}  // namespace ofmtl
