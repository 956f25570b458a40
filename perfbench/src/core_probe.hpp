// Single-thread split of the classifier's cost for the traced run: the
// undecorated execute_batch, the same walk through a timing
// TableLookupSource decorator (per-table lookup time, action apply as the
// remainder), and each table's FieldSearch::search_batch on the headers
// that reach it. No flow cache and no runtime are involved.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace perfbench {

struct CoreSplit {
  std::size_t packets = 0;  ///< headers per pass
  std::size_t rounds = 0;   ///< interleaved passes of every kind
  /// Medians over the rounds, in ns per packet of the pass.
  double execute_ns = 0;    ///< undecorated execute_batch
  double decorated_ns = 0;  ///< decorated executor, whole walk
  /// Median over the rounds of decorated / undecorated time, each round's
  /// two walks timed back to back.
  double decorated_ratio = 0;
  std::vector<double> table_ns;  ///< per table, inside the decorator
  double apply_ns = 0;           ///< decorated walk minus table lookups
  /// search_batch per field, summed over the tables matching on it.
  std::vector<std::pair<std::string, double>> field_ns;
  /// Verdicts of the decorated walk that differ from the undecorated one.
  std::size_t mismatches = 0;
};

/// Metric-name form of a match field ("ipv4_dst", "in_port", ...).
[[nodiscard]] std::string field_slug(ofmtl::FieldId field);

/// Measures `headers` against `tables` (read-only), repeating interleaved
/// rounds until `budget_ns` is spent (5 to 21 rounds).
[[nodiscard]] CoreSplit measure_core(const ofmtl::MultiTableLookup& tables,
                                     std::span<const ofmtl::PacketHeader> headers,
                                     std::int64_t budget_ns);

}  // namespace perfbench
