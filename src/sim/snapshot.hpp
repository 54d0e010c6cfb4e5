// Bit-packed per-snapshot path observations.
//
// An experiment yields, for each path, one congested/good bit per snapshot.
// PathObservations packs these row-per-path so that joint statistics —
// P(two paths simultaneously good), exact congested-path patterns — reduce
// to word-wise AND/OR plus popcount, which is what makes pair-equation
// estimation cheap at paper scale (1500 paths => ~1.1M pairs).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coverage.hpp"
#include "graph/path.hpp"

namespace tomo::sim {

using graph::PathId;
using graph::PathIdSet;

/// Words of a path-major bit matrix: `path_count` rows of ceil(snapshots /
/// 64) words. Throws tomo::Error past what a std::vector can hold, so a
/// crafted dimension line cannot wrap it into a short allocation.
std::size_t bit_matrix_words(std::size_t path_count,
                             std::size_t snapshot_count);

class PathObservations {
 public:
  PathObservations(std::size_t path_count, std::size_t snapshot_count);

  std::size_t path_count() const { return path_count_; }
  std::size_t snapshot_count() const { return snapshot_count_; }

  /// Marks path `p` congested in snapshot `n` (bits start out good).
  void set_congested(PathId p, std::size_t n);

  /// Overwrites path `p`'s congested-bit row from `words` (words_per_path()
  /// of them). Bits beyond snapshot_count() must already be zero.
  void assign_congested_row(PathId p, const std::uint64_t* words);

  bool congested(PathId p, std::size_t n) const;

  /// Number of snapshots in which the path was good.
  std::size_t good_count(PathId p) const;

  /// Number of snapshots in which both paths were good simultaneously.
  std::size_t both_good_count(PathId a, PathId b) const;

  /// Number of snapshots in which every path in `paths` was good.
  std::size_t all_good_count(const std::vector<PathId>& paths) const;

  /// Number of snapshots whose congested-path set is exactly `pattern`
  /// (sorted PathIdSet). This is the measurement the theorem algorithm
  /// needs: the empirical P(ψ(S) = ψ(A)).
  std::size_t exact_pattern_count(const PathIdSet& pattern) const;

  /// Number of 64-bit words backing each path's snapshot row.
  std::size_t words_per_path() const { return (snapshot_count_ + 63) / 64; }

  /// Raw congested-bit words of one path (words_per_path() of them, bit n =
  /// snapshot n congested; tail bits beyond snapshot_count() are zero).
  /// Lets callers derive cached views (e.g. per-path good-snapshot masks)
  /// without re-walking set_congested history.
  const std::uint64_t* congested_words(PathId p) const { return row(p); }

 private:
  const std::uint64_t* row(PathId p) const;
  std::uint64_t* row(PathId p);

  std::size_t path_count_;
  std::size_t snapshot_count_;
  std::vector<std::uint64_t> bits_;  // 1 = congested
};

}  // namespace tomo::sim
