#include "core/field_search.hpp"

#include <stdexcept>

namespace ofmtl {

namespace {

/// Encodes a (partition-length, partition-value) pair as the key of a trie's
/// label encoder.
[[nodiscard]] U128 partition_key(unsigned length, std::uint64_t value) {
  return U128{(std::uint64_t{length} << 16) | value};
}

/// Partition `p` of a field-wide prefix: the 16-bit prefix trie p stores.
[[nodiscard]] Prefix partition(const Prefix& prefix, std::size_t p) {
  const auto index = static_cast<unsigned>(p);
  return Prefix::from_value(prefix.partition16(index),
                            prefix.partition16_length(index), 16);
}

}  // namespace

FieldSearch::FieldSearch(FieldId field, FieldSearchConfig config)
    : field_(field), config_(std::move(config)) {
  const auto& info = field_info(field);
  switch (info.method) {
    case MatchMethod::kExact:
      lut_ = std::make_unique<ExactMatchLut>(info.bits);
      label_refs_.resize(1);
      break;
    case MatchMethod::kLongestPrefix: {
      const unsigned partitions = partition_count(info.bits);
      tries_.reserve(partitions);
      trie_encoders_.resize(partitions);
      label_refs_.resize(partitions);
      for (unsigned p = 0; p < partitions; ++p) {
        tries_.emplace_back(16, config_.strides);
      }
      break;
    }
    case MatchMethod::kRange:
      ranges_ = std::make_unique<RangeMatcher>(info.bits);
      break;
  }
}

std::size_t FieldSearch::algorithm_count() const {
  return tries_.empty() ? 1 : tries_.size();
}

std::optional<FieldSearch::RuleElements> FieldSearch::decompose(
    const FieldMatch& match) const {
  const auto& info = field_info(field_);
  // A value wider than the field matches no header the reference compares
  // it against, so no engine may store it either.
  const auto fits = [&info](const U128& value) {
    return (value >> info.bits) == U128{};
  };
  if (match.kind == MatchKind::kExact && !fits(match.value)) {
    return std::nullopt;
  }
  RuleElements elements;
  switch (info.method) {
    case MatchMethod::kExact:
      switch (match.kind) {
        case MatchKind::kAny:
          break;  // exact_value stays empty -> wildcard
        case MatchKind::kExact:
          elements.exact_value = match.value;
          break;
        default:
          return std::nullopt;
      }
      return elements;
    case MatchMethod::kLongestPrefix: {
      Prefix prefix;
      switch (match.kind) {
        case MatchKind::kAny:
          prefix = Prefix{U128{}, 0, info.bits};
          break;
        case MatchKind::kExact:
          prefix = Prefix{match.value, info.bits, info.bits};
          break;
        case MatchKind::kPrefix:
          if (match.prefix.width() != info.bits) return std::nullopt;
          prefix = match.prefix;
          break;
        default:
          return std::nullopt;
      }
      elements.prefix = prefix;
      return elements;
    }
    case MatchMethod::kRange:
      switch (match.kind) {
        case MatchKind::kAny:
          elements.range = ValueRange{0, low_mask(info.bits)};
          break;
        case MatchKind::kExact:
          elements.range = ValueRange{match.value.lo, match.value.lo};
          break;
        case MatchKind::kRange:
          if (match.range.lo > match.range.hi || !fits(U128{match.range.hi})) {
            return std::nullopt;
          }
          elements.range = match.range;
          break;
        default:
          return std::nullopt;
      }
      return elements;
  }
  return std::nullopt;
}

std::vector<Label> FieldSearch::add_rule(const FieldMatch& match) {
  const auto elements = decompose(match);
  if (!elements) throw std::invalid_argument("add_rule: unsupported match");
  switch (method()) {
    case MatchMethod::kExact: {
      if (!elements->exact_value) {
        if (!em_any_label_) {
          // Reserve a label outside the value space: the LUT never returns
          // it, the index table recognises it from the candidate list.
          em_any_label_ = static_cast<Label>(0x80000000U);
        }
        ++em_any_refs_;
        return {*em_any_label_};
      }
      const Label label = lut_->insert(*elements->exact_value);
      ++label_refs_[0][label];
      return {label};
    }
    case MatchMethod::kLongestPrefix: {
      std::vector<Label> labels;
      labels.reserve(tries_.size());
      for (std::size_t p = 0; p < tries_.size(); ++p) {
        const Prefix prefix = partition(*elements->prefix, p);
        const Label label = trie_encoders_[p].encode(
            partition_key(prefix.length(), prefix.value64()));
        tries_[p].insert(prefix, label);
        ++label_refs_[p][label];
        labels.push_back(label);
      }
      return labels;
    }
    case MatchMethod::kRange:
      return {ranges_->add(*elements->range)};
  }
  throw std::logic_error("unknown match method");
}

std::vector<Label> FieldSearch::remove_rule(const FieldMatch& match) {
  const auto elements = decompose(match);
  if (!elements) throw std::invalid_argument("remove_rule: unsupported match");
  const auto drop_ref = [this](std::size_t algorithm, Label label) {
    const auto it = label_refs_[algorithm].find(label);
    if (it == label_refs_[algorithm].end()) {
      throw std::invalid_argument("remove_rule: label not registered");
    }
    if (--it->second != 0) return false;
    label_refs_[algorithm].erase(it);
    return true;  // last reference gone
  };

  switch (method()) {
    case MatchMethod::kExact: {
      if (!elements->exact_value) {
        if (em_any_refs_ == 0) {
          throw std::invalid_argument("remove_rule: wildcard not registered");
        }
        --em_any_refs_;
        return {*em_any_label_};
      }
      const auto label = lut_->lookup(*elements->exact_value);
      if (!label) throw std::invalid_argument("remove_rule: value not present");
      if (drop_ref(0, *label)) lut_->remove(*elements->exact_value);
      return {*label};
    }
    case MatchMethod::kLongestPrefix: {
      std::vector<Label> labels;
      for (std::size_t p = 0; p < tries_.size(); ++p) {
        const Prefix prefix = partition(*elements->prefix, p);
        const auto label = trie_encoders_[p].find(
            partition_key(prefix.length(), prefix.value64()));
        if (!label) {
          throw std::invalid_argument("remove_rule: prefix not present");
        }
        if (drop_ref(p, *label)) tries_[p].remove(prefix);
        labels.push_back(*label);
      }
      return labels;
    }
    case MatchMethod::kRange: {
      // RangeMatcher counts one reference per registered rule.
      const auto label = ranges_->find(*elements->range);
      if (!ranges_->remove(*elements->range)) {
        throw std::invalid_argument("remove_rule: range not present");
      }
      return {*label};
    }
  }
  throw std::logic_error("unknown match method");
}

void FieldSearch::search_batch(std::span<const PacketHeader* const> headers,
                               SearchContext& ctx,
                               std::size_t slot_base) const {
  switch (method()) {
    case MatchMethod::kExact: {
      // Gather the field values, probe the LUT with interleaved prefetching
      // probes, then scatter labels into the lanes' candidate slots.
      auto& values = ctx.batch_values();
      auto& labels = ctx.batch_labels();
      values.clear();
      for (const PacketHeader* header : headers) {
        values.push_back(header->get(field_));
      }
      labels.resize(headers.size());
      lut_->lookup_batch(values, labels);
      const bool any = em_any_label_ && em_any_refs_ > 0;
      for (std::size_t i = 0; i < headers.size(); ++i) {
        LabelList& list = ctx.slot(i, slot_base);
        list.clear();
        if (labels[i] != kNoLabel) list.push_back(labels[i]);
        if (any) list.push_back(*em_any_label_);
      }
      return;
    }
    case MatchMethod::kLongestPrefix: {
      for (std::size_t p = 0; p < tries_.size(); ++p) {
        for (std::size_t i = 0; i < headers.size(); ++i) {
          tries_[p].lookup_all(
              headers[i]->partition16(field_, static_cast<unsigned>(p)),
              ctx.slot(i, slot_base + p));
        }
      }
      return;
    }
    case MatchMethod::kRange: {
      for (std::size_t i = 0; i < headers.size(); ++i) {
        const auto& labels = ranges_->lookup(headers[i]->get64(field_));
        ctx.slot(i, slot_base).assign(labels.begin(), labels.end());
      }
      return;
    }
  }
}

std::vector<std::size_t> FieldSearch::unique_values() const {
  std::vector<std::size_t> counts;
  switch (method()) {
    case MatchMethod::kExact:
      counts.push_back(lut_->unique_values());
      break;
    case MatchMethod::kLongestPrefix:
      for (const auto& trie : tries_) counts.push_back(trie.prefix_count());
      break;
    case MatchMethod::kRange:
      counts.push_back(ranges_->unique_ranges());
      break;
  }
  return counts;
}

mem::MemoryReport FieldSearch::memory_report(const std::string& prefix) const {
  mem::MemoryReport report;
  switch (method()) {
    case MatchMethod::kExact:
      report.merge(lut_->memory_report(prefix + ".lut"), "");
      break;
    case MatchMethod::kLongestPrefix: {
      // Worst-case-shared label width across the partitions, as the paper
      // sizes node fields by the worst case.
      std::size_t max_labels = 1;
      for (const auto& encoder : trie_encoders_) {
        max_labels = std::max(max_labels, encoder.size());
      }
      const unsigned label_bits =
          max_labels <= 1 ? 1 : ceil_log2(max_labels);
      static const char* const kPartNames[] = {"hi", "mid", "lo", "p3",
                                               "p4", "p5",  "p6", "p7"};
      for (std::size_t p = 0; p < tries_.size(); ++p) {
        const std::string part =
            p < 8 ? kPartNames[tries_.size() == 2 && p == 1 ? 2 : p]
                  : std::to_string(p);
        report.merge(tries_[p].memory_report(prefix + ".trie." + part,
                                             config_.storage, label_bits),
                     "");
      }
      break;
    }
    case MatchMethod::kRange: {
      const unsigned label_bits =
          ranges_->unique_ranges() <= 1
              ? 1
              : ceil_log2(ranges_->unique_ranges());
      // storage_bits already aggregates boundaries + label lists.
      report.add(prefix + ".range_index", ranges_->storage_bits(label_bits), 1);
      break;
    }
  }
  return report;
}

std::uint64_t FieldSearch::update_words() const {
  switch (method()) {
    case MatchMethod::kExact:
      return lut_->update_words();
    case MatchMethod::kLongestPrefix: {
      std::uint64_t words = 0;
      for (const auto& trie : tries_) words += trie.write_count();
      return words;
    }
    case MatchMethod::kRange:
      return ranges_->unique_ranges();
  }
  return 0;
}

}  // namespace ofmtl
