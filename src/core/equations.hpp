// The §4 equation builder.
//
// In the log domain, a "correlation-free" set of links (no two links from
// the same correlation set) factorizes: log P(all good) = Σ_k x_k. The
// builder therefore harvests two candidate families:
//   singles — paths whose links are correlation-free (Eq. 9), and
//   pairs   — path pairs whose *union* of links is correlation-free
//             (Eq. 10); only intersecting pairs can add rank, since the
//             union row of two disjoint basis rows is their sum.
// Candidates stream through an incremental rank tracker; only rank-
// increasing equations with usable measurements (non-zero empirical
// probability) are kept. The result is N1 + N2 <= |E| independent
// equations, exactly the system the paper solves.
//
// The pair harvest is the hot path at dense-mesh scale and is built as a
// streaming generator: per-link candidate emission deduplicated by
// lowest-touch-link ownership (no global seen-set), an exact
// correlation-set-signature precheck that decides correlation_free(union)
// without materializing the union, and batched candidate evaluation fanned
// across the executor with a deterministic candidate-order merge — the
// accepted system is byte-identical to the historical sequential build for
// any parallel width, which the differential suite (test_equations_fast)
// enforces against the reference paths.
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/coverage.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solvers.hpp"
#include "sim/measurement.hpp"

namespace tomo::core {

struct Equation {
  std::vector<graph::LinkId> links;  // sorted union, the 0/1 row support
  std::vector<graph::PathId> paths;  // 1 (single) or 2 (pair)
  double y;                          // log P(all paths good)
};

struct EquationSystem {
  std::vector<Equation> equations;  // the harvest's sparse product
  std::size_t link_count = 0;
  std::size_t n1 = 0;             // accepted single-path equations
  std::size_t n2 = 0;             // accepted pair equations
  std::size_t rank = 0;           // == n1 + n2
  std::size_t dropped_correlated = 0;  // candidates with correlated links
  std::size_t dropped_unusable = 0;    // zero/low empirical probability
  std::size_t dropped_dependent = 0;   // linearly dependent candidates
  std::size_t pair_candidates_tried = 0;
  /// Wall seconds spent inside build_equations (harvest telemetry; not a
  /// metric — never printed on stdout).
  double build_seconds = 0.0;

  bool full_rank() const { return rank == link_count; }

  /// Dense solver-facing views of the harvest: the |equations| x |links|
  /// 0/1 incidence matrix and the right-hand sides. Materialized from
  /// `equations` on first access and cached — the harvest itself never
  /// pays for megabytes of structural zeros, and discarded intermediate
  /// systems (demotion rounds) never materialize at all. The mutable
  /// overloads exist for in-place reweighting (apply_variance_weights);
  /// they materialize first, so weighted entries are never rebuilt over.
  /// NOTE: first access mutates the cache without synchronization, so the
  /// const overloads are not safe to call concurrently on a shared system
  /// — materialize once (or give each thread its own copy) before fanning
  /// out.
  const linalg::Matrix& matrix() const { ensure_dense(); return a_; }
  const linalg::Vector& rhs() const { ensure_dense(); return y_; }
  linalg::Matrix& matrix() { ensure_dense(); return a_; }
  linalg::Vector& rhs() { ensure_dense(); return y_; }

 private:
  void ensure_dense() const;

  mutable bool dense_ready_ = false;
  mutable linalg::Matrix a_;
  mutable linalg::Vector y_;
};

struct EquationBuildOptions {
  bool use_pairs = true;
  /// Upper bound on pair candidates examined (each may cost an elimination
  /// sweep); 0 means no bound.
  std::size_t max_pair_candidates = 0;
  /// Minimum good-snapshot support for an empirical estimate to be usable.
  std::size_t min_good_snapshots = 1;
  /// Shuffles the pair-candidate order (deterministic); spreads accepted
  /// pairs across the topology instead of clustering near low link ids.
  std::uint64_t shuffle_seed = 7;
  /// When true (default), every usable equation the correlation structure
  /// admits is kept, including linearly dependent ones — the solver then
  /// fits all available measurements (what [12] effectively does). When
  /// false, only rank-increasing equations are kept: the minimal
  /// N1 + N2 <= |E| system of the paper's §4 presentation.
  bool include_redundant = true;
  /// Cap on accepted pair equations in redundant mode (0 = one per link,
  /// i.e. |E|). Ignored when include_redundant is false.
  std::size_t max_pair_equations = 0;
  /// When true (default), correlation_free(union) for a pair candidate is
  /// decided from per-path correlation-set signatures (exact for phase-2
  /// candidates, whose paths are individually correlation-free) without
  /// materializing the union. When false, the scalar reference path —
  /// materialize the sorted union, scan it against the declared sets — is
  /// used instead; differential tests pin the two against each other.
  bool use_signature_precheck = true;
};

/// Builds the equation system for the given correlation structure. Pass
/// CorrelationSets::singletons() to obtain the independence baseline's
/// system.
EquationSystem build_equations(const graph::CoverageIndex& coverage,
                               const corr::CorrelationSets& sets,
                               const sim::MeasurementProvider& measurement,
                               const EquationBuildOptions& options = {});

/// Scales each equation by the inverse standard deviation of its estimate:
/// by the delta method, Var(log p-hat) ~= (1 - p) / (p * N) for a binomial
/// proportion over N snapshots. Well-supported equations then count more
/// in the (least-squares-family) solve. No-op when `samples` == 0 (oracle
/// measurements are exact).
void apply_variance_weights(EquationSystem& system, std::size_t samples);

/// Solver-facing sparse view of the harvest: one row per equation,
/// borrowing the equations' link storage (the view must not outlive
/// `system`). With `weight_samples` > 0 each row carries the same
/// inverse-stddev variance weight apply_variance_weights would install —
/// but applied inside the view, so the dense matrix never materializes.
linalg::SparseSystemView sparse_view(const EquationSystem& system,
                                     std::size_t weight_samples = 0);

/// Sparse view of `system` with replacement right-hand sides — the bootstrap
/// fast path, where a resampled replicate keeps the harvest's supports but
/// re-estimates every log-probability. ys[i] is equation i's new y; weights
/// (when `weight_samples` > 0) are recomputed from the new values, exactly
/// what a fresh harvest of the replicate would install. Same borrowing rule
/// as sparse_view: the view must not outlive `system`.
linalg::SparseSystemView sparse_view_with_rhs(const EquationSystem& system,
                                              const std::vector<double>& ys,
                                              std::size_t weight_samples = 0);

}  // namespace tomo::core
