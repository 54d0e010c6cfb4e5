// Non-negative least squares (Lawson-Hanson active-set method).
//
// Used to solve the rank-deficient tomography systems: with the
// substitution u = -x (x are log-probabilities, hence <= 0), the system
// A x = y becomes A u = -y with u >= 0, and NNLS both honours the sign
// constraint and yields sparse minimum-ish solutions, which is the effect
// the paper's "minimize the L1 norm error" fallback is after.
//
// Two interchangeable engines share the active-set logic:
//   kIncremental (default) — works on the normal equations of a
//     once-per-solve Gram system (G = A^T A, c = A^T b): every inner
//     iteration edits an UpdatableCholesky factor of the passive block
//     G[P, P] in O(k^2) and triangular-solves, instead of re-running an
//     m x k QR from scratch. Numerically dependent passive candidates are
//     rejected at insert time (with a condition-triggered refactorize
//     fallback), and columns dropped by a degenerate zero-length step are
//     blocked from immediate re-entry until the iterate moves —
//     the anti-cycling safeguard.
//   kReference — the historical implementation (fresh rank-revealing QR on
//     the passive submatrix per iteration); kept for differential testing
//     (tests/test_nnls_fast.cpp) and as the bit-for-bit baseline.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/updatable_cholesky.hpp"

namespace tomo::linalg {

enum class NnlsMode {
  kIncremental,  // cached Gram + updatable Cholesky (default)
  kReference,    // fresh dense QR per inner iteration
};

/// The measurement-independent half of a warm start: a Cholesky factor of
/// G[P, P] and the columns P it covers, in factor order. It depends only
/// on the Gram matrix, not the right-hand side, so it comes from two
/// places:
///   - seed_warm_factor: the admissible seed columns appended in seed
///     order (dependent/empty columns dropped). Callers solving many
///     systems that share G (the batched bootstrap's replicates) build it
///     once and let every solve copy the factor in O(k^2) instead of
///     re-appending k columns in O(k^3); the copy is bit-identical to the
///     rebuild, so results don't change.
///   - NnlsResult::factor: the factor a solve ends with, over its final
///     passive set. A later solve against a bitwise-equal G (the next
///     streaming window with an unchanged equation support) starts from
///     it with no appends at all; it reaches the same objective as a seed
///     rebuilt from the active set, though the factor's last bits differ.
struct NnlsWarmFactor {
  UpdatableCholesky chol;
  std::vector<std::size_t> passive;  // the factored columns, factor order
};

struct GramSystem;

/// Runs the warm-up admission loop once. `warm` is interpreted exactly as
/// NnlsOptions::warm_start (out-of-range, duplicate, empty-column, or
/// dependent entries are dropped).
NnlsWarmFactor seed_warm_factor(const GramSystem& gs,
                                const std::vector<std::size_t>& warm);

struct NnlsOptions {
  NnlsMode mode = NnlsMode::kIncremental;
  /// 0 means the 3 * cols + 10 default, which is ample in practice.
  std::size_t max_iterations = 0;
  /// Gradient/positivity tolerance of the active-set logic.
  double tol = 1e-10;
  /// Warm start (incremental engine only): columns seeded into the passive
  /// set before the active-set loop runs — typically the previous window's
  /// converged support in a streaming solve. Out-of-range, duplicate, or
  /// numerically dependent entries are dropped, and seeded columns whose
  /// restricted solution is infeasible are removed before iteration, so a
  /// stale or perturbed set is always safe: the result is the same optimum
  /// a cold solve reaches, just via fewer iterations. The reference engine
  /// ignores it.
  std::vector<std::size_t> warm_start;
  /// Optional pre-factored seed (incremental engine only). Must have been
  /// built by seed_warm_factor, or handed back in NnlsResult::factor, for
  /// a GramSystem with the *same* gram matrix as the one being solved (the
  /// rhs may differ). When set it replaces the warm_start admission loop —
  /// warm_start itself is then ignored. Not owned; the caller keeps it
  /// alive for the solve.
  const NnlsWarmFactor* warm_factor = nullptr;
};

struct NnlsResult {
  Vector x;                    // the non-negative solution
  double residual_norm = 0.0;  // ||A x - b||_2
  std::size_t iterations = 0;
  bool converged = false;  // false if the iteration cap was hit
  /// Full refactorizations of the passive-set factor (incremental mode
  /// only): > 0 means the condition-triggered fallback fired.
  std::size_t refactorizations = 0;
  /// The converged passive set (columns with x > 0), sorted ascending.
  /// Filled by the incremental engine — feed it back through
  /// NnlsOptions::warm_start to seed the next related solve. The reference
  /// engine leaves it empty.
  std::vector<std::size_t> active_set;
  /// The factor of G[P, P] the incremental engine ended with, P its final
  /// passive set in factor order (moved out, not copied). Pass it back
  /// through NnlsOptions::warm_factor to start a solve against the same G
  /// from this support with no factor appends. Empty from the reference
  /// engine.
  NnlsWarmFactor factor;
};

/// Normal-equations view of a least-squares problem: everything NNLS needs
/// once the rows of A are no longer required individually. Building it is
/// the only O(rows) work in an incremental solve.
struct GramSystem {
  Matrix gram;  // A^T A, cols x cols, symmetric
  Vector atb;   // A^T b
  double btb = 0.0;  // b^T b, for residual recovery
};

/// Builds the Gram system of a dense problem (one pass over A).
GramSystem make_gram(const Matrix& a, const Vector& b);

/// Solves min ||A x - b||_2 subject to x >= 0.
NnlsResult nnls(const Matrix& a, const Vector& b, const NnlsOptions& options);

/// Backward-compatible overload: default (incremental) engine.
NnlsResult nnls(const Matrix& a, const Vector& b,
                std::size_t max_iterations = 0, double tol = 1e-10);

/// Incremental engine entry point for callers that already hold the Gram
/// system (the sparse solver front end builds it without ever
/// materializing A). `options.mode` must be kIncremental.
NnlsResult nnls_gram(const GramSystem& system, const NnlsOptions& options = {});

}  // namespace tomo::linalg
