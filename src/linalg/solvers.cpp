#include "linalg/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "linalg/irls.hpp"
#include "linalg/qr.hpp"
#include "linalg/simplex.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tomo::linalg {

SolverKind solver_kind_from_string(const std::string& name) {
  if (name == "ls") return SolverKind::kLeastSquares;
  if (name == "nnls") return SolverKind::kNnls;
  if (name == "l1lp") return SolverKind::kL1Lp;
  if (name == "irls") return SolverKind::kIrls;
  throw Error("unknown solver '" + name + "' (expected ls|nnls|l1lp|irls)");
}

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kLeastSquares: return "ls";
    case SolverKind::kNnls: return "nnls";
    case SolverKind::kL1Lp: return "l1lp";
    case SolverKind::kIrls: return "irls";
  }
  return "?";
}

namespace {

void require_finite(const SparseSystemView& system) {
  for (const SparseRow& row : system.rows) {
    TOMO_REQUIRE(std::isfinite(row.y) && std::isfinite(row.value),
                 "solve_log_system: non-finite rhs entry");
  }
}

/// Back-substitutes u = -x and clamps to the feasible domain
/// (log-probabilities of "good" are <= 0).
LogSystemSolution finish(Vector u, std::ostringstream& detail) {
  LogSystemSolution out;
  out.x.resize(u.size());
  for (std::size_t j = 0; j < u.size(); ++j) {
    out.x[j] = -std::max(0.0, u[j]);
  }
  out.detail = detail.str();
  return out;
}

void describe_nnls(std::ostringstream& detail, const NnlsResult& r) {
  detail << "nnls[inc] iters=" << r.iterations
         << " refactor=" << r.refactorizations;
  if (!r.converged) detail << " (iteration cap)";
}

/// Column -> incident-row adjacency, so each Gram row can be accumulated
/// independently (and hence in parallel) while every entry's sum still
/// runs in ascending row order — the width-invariance contract.
struct ColumnAdjacency {
  std::vector<std::size_t> offsets;       // cols + 1 prefix sums
  std::vector<std::uint32_t> incident;    // row ids, ascending per column
};

ColumnAdjacency column_adjacency(const SparseSystemView& system) {
  const std::size_t n = system.cols;
  ColumnAdjacency adj;
  std::vector<std::size_t> counts(n, 0);
  for (const SparseRow& row : system.rows) {
    for (std::size_t k = 0; k < row.support_size; ++k) {
      ++counts[row.support[k]];
    }
  }
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj.offsets[i + 1] = adj.offsets[i] + counts[i];
  }
  adj.incident.resize(adj.offsets[n]);
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    for (std::size_t k = 0; k < row.support_size; ++k) {
      adj.incident[cursor[row.support[k]]++] = static_cast<std::uint32_t>(r);
    }
  }
  return adj;
}

}  // namespace

void accumulate_gram(GramSystem& gs, const SparseSystemView& system) {
  const std::size_t n = system.cols;
  if (gs.gram.rows() != n || gs.gram.cols() != n) {
    TOMO_REQUIRE(gs.gram.rows() == 0 && gs.atb.empty() && gs.btb == 0.0,
                 "accumulate_gram: existing gram has a different column "
                 "count");
    gs.gram = Matrix(n, n);
    gs.atb.assign(n, 0.0);
  }

  const ColumnAdjacency adj = column_adjacency(system);
  util::parallel_for(n, [&](std::size_t i) {
    double* gram_row = gs.gram.row_data(i);
    double ci = gs.atb[i];
    for (std::size_t slot = adj.offsets[i]; slot < adj.offsets[i + 1];
         ++slot) {
      const SparseRow& row = system.rows[adj.incident[slot]];
      const double v2 = row.value * row.value;
      for (std::size_t k = 0; k < row.support_size; ++k) {
        gram_row[row.support[k]] += v2;
      }
      // b = -y: the solvers run on the negated non-negative system.
      ci += row.value * -row.y;
    }
    gs.atb[i] = ci;
  });

  for (const SparseRow& row : system.rows) {
    gs.btb += row.y * row.y;
  }
}

void refresh_gram_rhs(GramSystem& gs, const SparseSystemView& system) {
  const std::size_t n = system.cols;
  TOMO_REQUIRE(gs.gram.rows() == n && gs.gram.cols() == n,
               "refresh_gram_rhs: gram shape does not match the system");
  gs.atb.assign(n, 0.0);
  gs.btb = 0.0;
  const ColumnAdjacency adj = column_adjacency(system);
  util::parallel_for(n, [&](std::size_t i) {
    double ci = 0.0;
    for (std::size_t slot = adj.offsets[i]; slot < adj.offsets[i + 1];
         ++slot) {
      const SparseRow& row = system.rows[adj.incident[slot]];
      ci += row.value * -row.y;
    }
    gs.atb[i] = ci;
  });
  for (const SparseRow& row : system.rows) {
    gs.btb += row.y * row.y;
  }
}

GramSystem sparse_gram(const SparseSystemView& system, std::size_t jobs) {
  const util::ScopedWidth width(jobs);
  GramSystem gs;
  accumulate_gram(gs, system);
  return gs;
}

DenseSystem dense_system(const SparseSystemView& system) {
  DenseSystem out{Matrix(system.rows.size(), system.cols),
                  Vector(system.rows.size())};
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    double* dense = out.a.row_data(r);
    for (std::size_t k = 0; k < row.support_size; ++k) {
      dense[row.support[k]] = row.value;
    }
    out.y[r] = row.y;
  }
  return out;
}

namespace {

/// ||A x - y|| from the sparse rows (x is the clamped solution).
double sparse_residual_norm(const SparseSystemView& system, const Vector& x) {
  double norm = 0.0;
  for (const SparseRow& row : system.rows) {
    double ax = 0.0;
    for (std::size_t k = 0; k < row.support_size; ++k) {
      ax += x[row.support[k]];
    }
    const double r = row.value * ax - row.y;
    norm += r * r;
  }
  return std::sqrt(norm);
}

/// The row-oriented kinds (ls, l1lp, irls) on the dense copy of the view.
LogSystemSolution solve_dense(const SparseSystemView& system,
                              SolverKind kind) {
  const DenseSystem d = dense_system(system);
  // u = -x >= 0, b = -y >= 0.
  Vector b(d.y.size());
  for (std::size_t i = 0; i < d.y.size(); ++i) b[i] = -d.y[i];

  std::ostringstream detail;
  Vector u;
  if (kind == SolverKind::kLeastSquares) {
    u = least_squares(d.a, b);
    detail << "qr-ls";
  } else if (kind == SolverKind::kL1Lp) {
    L1Result r = l1_regression(d.a, b);
    u = std::move(r.x);
    detail << "l1lp obj=" << r.objective
           << (r.optimal ? "" : " (not proven optimal)");
  } else {
    TOMO_ASSERT(kind == SolverKind::kIrls);
    IrlsResult r = irls_l1(d.a, b);
    u = std::move(r.x);
    detail << "irls iters=" << r.iterations
           << (r.converged ? "" : " (iteration cap)");
  }

  LogSystemSolution out = finish(std::move(u), detail);
  out.residual_norm2 = norm2(residual(d.a, out.x, d.y));
  return out;
}

/// The NNLS tail of the two entry points: solve on the (caller- or
/// locally-built) Gram system, clamp, recover the residual from the rows.
LogSystemSolution solve_gram(const SparseSystemView& system,
                             const GramSystem& gs,
                             const SolverOptions& options) {
  NnlsOptions nnls_options;
  nnls_options.max_iterations = options.max_iterations;
  nnls_options.tol = options.tol;
  nnls_options.warm_start = options.warm_start;
  nnls_options.warm_factor = options.nnls_warm_factor;
  NnlsResult r = nnls_gram(gs, nnls_options);
  std::ostringstream detail;
  describe_nnls(detail, r);
  if (options.nnls_warm_factor != nullptr) {
    detail << " warm=" << options.nnls_warm_factor->passive.size();
  } else if (!options.warm_start.empty()) {
    detail << " warm=" << options.warm_start.size();
  }
  LogSystemSolution out = finish(std::move(r.x), detail);
  out.active_set = std::move(r.active_set);
  out.nnls_factor = std::move(r.factor);
  out.residual_norm2 = sparse_residual_norm(system, out.x);
  return out;
}

}  // namespace

LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const SolverOptions& options) {
  require_finite(system);
  if (options.kind != SolverKind::kNnls) {
    return solve_dense(system, options.kind);
  }
  // The headline path: Gram products straight from the sparse support;
  // the dense incidence matrix never exists.
  GramSystem gs;
  accumulate_gram(gs, system);
  return solve_gram(system, gs, options);
}

LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const GramSystem& gs,
                                   const SolverOptions& options) {
  TOMO_REQUIRE(options.kind == SolverKind::kNnls,
               "solve_log_system(gram): only NNLS consumes a caller-held "
               "Gram system");
  TOMO_REQUIRE(gs.gram.cols() == system.cols,
               "solve_log_system(gram): gram shape does not match the view");
  require_finite(system);
  return solve_gram(system, gs, options);
}

}  // namespace tomo::linalg
