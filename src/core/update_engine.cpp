#include "core/update_engine.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ofmtl {

void UpdateScript::write(std::ostream& out) const {
  for (const auto& word : words) {
    out << word.target << " " << word.address << " " << word.payload << "\n";
  }
}

UpdateScript UpdateScript::parse(std::istream& in) {
  UpdateScript script;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Targets may contain spaces (field names); the last two space-separated
    // tokens are address and payload.
    const auto last = line.rfind(' ');
    const auto second_last =
        last == std::string::npos ? std::string::npos : line.rfind(' ', last - 1);
    if (last == std::string::npos || second_last == std::string::npos) {
      throw std::invalid_argument("bad update line: " + line);
    }
    UpdateWord word;
    word.target = line.substr(0, second_last);
    try {
      word.address = std::stoull(line.substr(second_last + 1, last - second_last - 1));
      word.payload = std::stoull(line.substr(last + 1));
    } catch (const std::exception&) {
      throw std::invalid_argument("bad update line: " + line);
    }
    script.words.push_back(std::move(word));
  }
  return script;
}

std::uint64_t UpdateReplayer::replay(const UpdateScript& script) {
  const std::uint64_t before = cycles_;
  for (const auto& word : script.words) {
    blocks_[word.target][word.address] = word.payload;  // cycle 1: index
    cycles_ += kCyclesPerUpdateWord;                    // cycle 2: store
  }
  return cycles_ - before;
}

std::size_t UpdateReplayer::block_words(const std::string& target) const {
  const auto it = blocks_.find(target);
  return it == blocks_.end() ? 0 : it->second.size();
}

std::optional<std::uint64_t> UpdateReplayer::word_at(
    const std::string& target, std::uint64_t address) const {
  const auto block = blocks_.find(target);
  if (block == blocks_.end()) return std::nullopt;
  const auto word = block->second.find(address);
  if (word == block->second.end()) return std::nullopt;
  return word->second;
}

std::uint64_t fresh_insert_words(const Prefix& prefix,
                                 const std::vector<unsigned>& strides) {
  std::uint64_t words = 0;
  unsigned cum = 0;
  for (const unsigned stride : strides) {
    if (prefix.length() > cum + stride) {
      words += 1;  // pointer store at this level
      cum += stride;
      continue;
    }
    const unsigned bits_here = prefix.length() - cum;
    words += std::uint64_t{1} << (stride - bits_here);  // expansion fan
    return words;
  }
  return words;
}

UpdateScript optimized_script(const LookupTable& table, UpdateScope scope) {
  UpdateScript script;
  std::uint64_t serial = 0;
  const auto emit = [&script, &serial](const std::string& target,
                                       std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      script.words.push_back({target, i, serial++});
    }
  };

  for (std::size_t f = 0; f < table.fields().size(); ++f) {
    const auto& search = table.field_searches()[f];
    const std::string base = "t." + std::string(field_name(table.fields()[f]));
    switch (search.method()) {
      case MatchMethod::kExact:
        emit(base + ".lut", search.lut()->update_words());
        break;
      case MatchMethod::kLongestPrefix: {
        const auto& tries = search.tries();
        for (std::size_t p = 0; p < tries.size(); ++p) {
          emit(base + ".trie" + std::to_string(p), tries[p].write_count());
        }
        break;
      }
      case MatchMethod::kRange:
        emit(base + ".ranges", search.ranges()->unique_ranges());
        break;
    }
  }
  if (scope == UpdateScope::kAll) {
    emit("t.index", table.index().update_words());
    emit("t.actions", table.action_words());
  }
  return script;
}

std::uint64_t original_words(const LookupTable& table, UpdateScope scope) {
  std::uint64_t words = 0;
  const std::vector<unsigned>* strides = nullptr;
  for (const auto& search : table.field_searches()) {
    if (!search.tries().empty()) {
      strides = &search.tries().front().strides();
      break;
    }
  }

  for (const auto& entry : table.entries()) {
    for (std::size_t f = 0; f < table.fields().size(); ++f) {
      const FieldId id = table.fields()[f];
      const auto& fm = entry.match.get(id);
      const auto& search = table.field_searches()[f];
      switch (search.method()) {
        case MatchMethod::kExact:
          if (fm.kind != MatchKind::kAny) words += 1;  // one LUT slot
          break;
        case MatchMethod::kRange:
          words += 1;  // one range record
          break;
        case MatchMethod::kLongestPrefix: {
          const unsigned bits = field_bits(id);
          Prefix prefix;
          if (fm.kind == MatchKind::kPrefix) {
            prefix = fm.prefix;
          } else if (fm.kind == MatchKind::kExact) {
            prefix = Prefix{fm.value, bits, bits};
          } else {
            prefix = Prefix{U128{}, 0, bits};
          }
          const unsigned partitions = partition_count(bits);
          for (unsigned p = 0; p < partitions; ++p) {
            const unsigned plen = prefix.partition16_length(p);
            const auto part =
                Prefix::from_value(prefix.partition16(p), plen, 16);
            words += fresh_insert_words(
                part, strides != nullptr ? *strides : default_strides16());
          }
          break;
        }
      }
    }
    if (scope == UpdateScope::kAll) {
      words += 2;  // index record + action-table entry per rule
    }
  }
  return words;
}

UpdateCost update_cost(const LookupTable& table, UpdateScope scope) {
  UpdateCost cost;
  cost.optimized_words = optimized_script(table, scope).word_count();
  cost.original_words = original_words(table, scope);
  return cost;
}

UpdateCost update_cost(const MultiTableLookup& pipeline, UpdateScope scope) {
  UpdateCost cost;
  for (std::size_t t = 0; t < pipeline.table_count(); ++t) {
    cost += update_cost(pipeline.table(t), scope);
  }
  return cost;
}

}  // namespace ofmtl
