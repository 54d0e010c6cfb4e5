// Measurement providers: the algorithms' only window onto the network.
//
// Both tomography algorithms consume probabilities of path-set goodness;
// the theorem algorithm additionally consumes exact congested-path-pattern
// probabilities. MeasurementProvider abstracts over where those numbers
// come from: empirical snapshot counts (EmpiricalMeasurement) or the exact
// ground-truth model (OracleMeasurement in oracle.hpp), which isolates
// algorithmic error from sampling error in tests and ablations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/coverage.hpp"
#include "sim/measurement_block.hpp"

namespace tomo::sim {

class MeasurementProvider {
 public:
  virtual ~MeasurementProvider() = default;

  virtual std::size_t path_count() const = 0;

  /// P(every path in `paths` is good); 1 for the empty set. The span is the
  /// one virtual entry point — callers with a vector or a braced list go
  /// through the forwarding overloads below, so no query ever materializes
  /// a temporary vector on the provider side.
  virtual double all_good_prob(std::span<const PathId> paths) const = 0;

  double all_good_prob(const std::vector<PathId>& paths) const {
    return all_good_prob(std::span<const PathId>(paths));
  }
  double all_good_prob(std::initializer_list<PathId> paths) const {
    return all_good_prob(std::span<const PathId>(paths.begin(), paths.size()));
  }

  /// P(the congested-path set is exactly `pattern`).
  virtual double exact_pattern_prob(const PathIdSet& pattern) const = 0;

  /// Number of snapshots backing the estimates (0 = exact oracle).
  virtual std::size_t sample_count() const = 0;

  /// P(path `p` good) and P(both paths good). These are the equation
  /// harvest's two hot queries; providers with a cheaper route than the
  /// general set query (EmpiricalMeasurement's bitmask rows) override them.
  /// The defaults stage the query on the stack — no heap traffic.
  virtual double good_prob(PathId p) const {
    const PathId one[1] = {p};
    return all_good_prob(std::span<const PathId>(one, 1));
  }
  virtual double pair_good_prob(PathId a, PathId b) const {
    const PathId two[2] = {a, b};
    return all_good_prob(std::span<const PathId>(two, 2));
  }
};

/// Estimates from path-major good-snapshot bitmasks.
///
/// Adopts a MeasurementBlock as-is — no re-packing, no reference to keep
/// alive — so the harvest's pair_good_prob(p, q) is a word-wise AND +
/// popcount over the two rows through the util::bitops kernel table. An
/// independent scalar implementation of the same counts (plain
/// complemented-word loops, no cached popcounts, no kernel tables) is a
/// test oracle in tests/oracles/, not a mode of this class.
class EmpiricalMeasurement final : public MeasurementProvider {
 public:
  /// Adopts the block directly (zero-copy hand-off).
  explicit EmpiricalMeasurement(MeasurementBlock block);

  using MeasurementProvider::all_good_prob;

  std::size_t path_count() const override;
  double all_good_prob(std::span<const PathId> paths) const override;
  double exact_pattern_prob(const PathIdSet& pattern) const override;
  std::size_t sample_count() const override;

  double good_prob(PathId p) const override;
  double pair_good_prob(PathId a, PathId b) const override;

  /// Number of snapshots in which path `p` was good (exact count, not a
  /// ratio — used by callers that compare against sample_count()).
  std::size_t good_count(PathId p) const;

  /// The underlying block.
  const MeasurementBlock& block() const { return block_; }

  /// Splices `window` onto the end of the block (MeasurementBlock::append):
  /// every query afterwards covers the extended snapshot range.
  void append(const MeasurementBlock& window);

 private:
  MeasurementBlock block_;
};

}  // namespace tomo::sim
