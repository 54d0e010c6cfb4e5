// Unified front end for solving the tomography log-domain linear system.
//
// The system is  A x = y  where rows of A are 0/1 link-incidence vectors
// (possibly row-scaled by variance weights), y_i = log P(paths of equation
// i all good) <= 0, and the unknowns x_k = log P(link k good) are
// constrained to x <= 0.
//
// Internally we substitute u = -x >= 0 and b = -y >= 0 so every solver
// works on a non-negative problem.
//
// A SparseSystemView is the one form in which a system reaches a solver.
// For NNLS (the default) the dense matrix never exists: the Gram products
// G = A^T A and c = A^T b are accumulated straight from the per-row
// support, fanned across the executor column-by-column. Entry sums always
// run in row order, so the solution is bit-identical for any parallel
// width. The row-oriented kinds (ls, l1lp, irls) solve on dense_system's
// copy of the view.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"

namespace tomo::linalg {

enum class SolverKind {
  kLeastSquares,  // QR least squares, then clamp to the feasible sign
  kNnls,          // Lawson-Hanson non-negative least squares (default)
  kL1Lp,          // exact L1 via simplex LP (small/medium systems)
  kIrls,          // IRLS approximation of L1
};

/// Parses "ls" | "nnls" | "l1lp" | "irls"; throws tomo::Error otherwise.
SolverKind solver_kind_from_string(const std::string& name);
std::string to_string(SolverKind kind);

/// Everything a caller can tune about the solve, threaded end to end from
/// core::InferenceOptions down to the engine.
struct SolverOptions {
  SolverKind kind = SolverKind::kNnls;
  /// Iteration cap for the iterative engines (0 = their defaults).
  std::size_t max_iterations = 0;
  /// Active-set / convergence tolerance for NNLS.
  double tol = 1e-10;
  /// Warm start for NNLS: column indices seeded into the passive set
  /// (normally the previous window's active_set in a streaming solve).
  /// Ignored by every other kind; safe to leave stale — see
  /// NnlsOptions::warm_start.
  std::vector<std::size_t> warm_start;
  /// Pre-factored warm seed for solves sharing one Gram matrix: the
  /// batched bootstrap's seed_warm_factor (bit-identical to the warm_start
  /// admission loop it replaces), or the factor the previous streaming
  /// window's solve handed back in LogSystemSolution::nnls_factor. Not
  /// owned — see NnlsOptions::warm_factor.
  const NnlsWarmFactor* nnls_warm_factor = nullptr;
};

/// One equation row viewed sparsely: `value` on every column in
/// [support, support + support_size), zero elsewhere, with right-hand side
/// y. The pointed-at index array must be sorted and outlive the view.
struct SparseRow {
  const std::size_t* support = nullptr;
  std::size_t support_size = 0;
  double value = 1.0;
  double y = 0.0;
};

/// Borrowed sparse view of the equation system (the rows' index storage is
/// owned by the caller, e.g. core::EquationSystem's per-equation links).
struct SparseSystemView {
  std::size_t cols = 0;
  std::vector<SparseRow> rows;
};

/// Dense copy of a view: `a` is rows x cols with each row's value on its
/// support and zero elsewhere; `y` the right-hand sides.
struct DenseSystem {
  Matrix a;
  Vector y;
};

/// Materializes `system` densely — for the row-oriented solver kinds, and
/// for tests and benchmarks that need the matrix itself.
DenseSystem dense_system(const SparseSystemView& system);

struct LogSystemSolution {
  Vector x;               // log P(link good), entries <= 0
  double residual_norm2;  // ||A x - y||_2 over the given equations
  std::string detail;     // solver-specific notes (iterations, status)
  /// Converged NNLS support, sorted ascending (empty from the other
  /// kinds) — the warm-start seed for the next window of a streaming solve.
  std::vector<std::size_t> active_set;
  /// The passive-set factor the incremental NNLS solve ended with (see
  /// NnlsResult::factor); empty from every other kind.
  NnlsWarmFactor nnls_factor;
};

/// Solves A x = y with x <= 0 using the requested solver. Row y entries
/// must be finite and <= 0 (equations with unusable measurements should
/// have been dropped by the caller). For NNLS the Gram system is built
/// directly from the row support (across the executor); the other kinds
/// solve on dense_system(system).
LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const SolverOptions& options = {});

/// Builds the Gram system (G = A^T A, c = A^T b, b^T b) of the *negated*
/// system A u = -y straight from the sparse rows, fanning columns across
/// the executor at width `jobs` (0 = all hardware cores). Exposed for the
/// solver micro-benchmarks and the differential suite; entry sums are
/// row-ordered, hence width-invariant.
GramSystem sparse_gram(const SparseSystemView& system, std::size_t jobs);

/// Adds `system`'s Gram contribution on top of `gs` (sizing/zeroing it on
/// first use). Because every entry's partial sums run in ascending row
/// order, accumulating any in-order partition of the rows window by window
/// executes the exact same floating-point addition sequence as one batch
/// build — the result is *bitwise* equal to sparse_gram over the
/// concatenated rows, for any split and any parallel width. This is the
/// streaming path's additive-Gram contract.
void accumulate_gram(GramSystem& gs, const SparseSystemView& system);

/// Recomputes only the right-hand-side products (c = A^T b, b^T b) of `gs`
/// from scratch for `system`'s rows, leaving G untouched. For the
/// streaming fast path where a window leaves the equation support (hence
/// G) unchanged but refreshes every y. Same row-ordered, width-invariant
/// sums as a full build.
void refresh_gram_rhs(GramSystem& gs, const SparseSystemView& system);

/// Solves with a caller-held Gram system of `system` (NNLS only —
/// options.kind must select it). The sparse view is still needed for the
/// residual; `gs` must match its rows (e.g. built via accumulate_gram over
/// the same equations, or refreshed by refresh_gram_rhs when only the
/// right-hand sides changed).
LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const GramSystem& gs,
                                   const SolverOptions& options);

}  // namespace tomo::linalg
