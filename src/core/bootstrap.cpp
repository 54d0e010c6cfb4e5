#include "core/bootstrap.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/estimator.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {
namespace {

/// Seed-stream tag; replicate_rng(seed, r) = Rng(mix_seed(seed, tag + r)).
constexpr std::uint64_t kReplicateTag = 0xb007ULL;

}  // namespace

Rng replicate_rng(std::uint64_t seed, std::size_t replicate) {
  return Rng(mix_seed(seed, kReplicateTag + replicate));
}

void draw_picks_into(std::size_t snapshot_count, Rng& rng,
                     std::vector<std::uint32_t>& picks) {
  picks.resize(snapshot_count);
  for (std::size_t i = 0; i < snapshot_count; ++i) {
    picks[i] = static_cast<std::uint32_t>(rng.below(snapshot_count));
  }
}

BootstrapResult bootstrap_congestion(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const BootstrapOptions& options) {
  TOMO_REQUIRE(options.replicates >= 2, "bootstrap needs >= 2 replicates");
  TOMO_REQUIRE(options.confidence > 0.0 && options.confidence < 1.0,
               "confidence must be in (0,1)");
  TOMO_REQUIRE(!block.empty(), "bootstrap needs a non-empty measurement");
  const util::ScopedWidth width(options.jobs);

  const std::size_t links = g.link_count();
  const std::size_t n = block.snapshot_count;
  BootstrapResult result;

  // Point estimate — run the structure phase once and keep the harvest:
  // the batched engine reuses its equation supports (and the Gram products
  // built from them) across every replicate whose support survives.
  const sim::EmpiricalMeasurement full{sim::MeasurementBlock(block)};
  const RefinedHarvest harvest = harvest_refined_system(
      g, paths, coverage, sets, full, options.inference);
  TOMO_REQUIRE(!harvest.system.equations.empty(),
               "no usable equations: the measurements never observed a "
               "usable good path");
  const std::size_t weight_samples =
      options.inference.weight_by_variance ? full.sample_count() : 0;
  const linalg::SparseSystemView point_view =
      sparse_view(harvest.system, weight_samples);
  const bool incremental =
      options.inference.solver.kind == linalg::SolverKind::kNnls;

  linalg::GramSystem skeleton;
  linalg::LogSystemSolution point_solution;
  if (incremental) {
    // accumulate_gram over the whole view is bitwise equal to the batch
    // build inside solve_log_system, so this point estimate is exactly
    // infer_congestion's.
    linalg::accumulate_gram(skeleton, point_view);
    point_solution = linalg::solve_log_system(point_view, skeleton,
                                              options.inference.solver);
  } else {
    point_solution =
        linalg::solve_log_system(point_view, options.inference.solver);
  }
  InferenceResult point;
  apply_solution(point, std::move(point_solution));
  result.point = point.congestion_prob;

  // Per-replicate estimates, indexed by replicate (empty = skipped) so the
  // reduction below is independent of which worker produced what.
  std::vector<std::vector<double>> estimates(options.replicates);
  std::vector<std::uint8_t> fell_back(options.replicates, 0);

  // The Gram-skeleton fast path is valid only when a replicate provably
  // re-harvests the exact same system, which needs:
  //  - every accepted equation still usable on the replicate (checked
  //    per replicate below) — a resample can only *lose* good
  //    snapshots, never invent them, so with min_good <= 1 no dropped
  //    candidate can become usable;
  //  - include_redundant, so every eligible single is an accepted
  //    equation (in non-redundant mode an eligible-but-dependent single
  //    feeds pair candidates without appearing in the system, and its
  //    usability flip would go undetected). The rank tracker absorbs
  //    only independent — hence accepted — rows, so a *dependent*
  //    candidate losing usability shifts a diagnostic counter but never
  //    the harvested equations;
  //  - the demotion chain replays: structural refinement is
  //    measurement-independent, and each demotion round's decision is a
  //    function of that round's harvest, so checking the intermediate
  //    rounds' witness_paths (plus the final system, checked by the y
  //    loop) per replicate certifies the whole chain.
  // Anything outside that envelope falls back to a full re-harvest,
  // which is the reference computation verbatim.
  const EquationBuildOptions& eq = options.inference.equations;
  const bool support_reusable =
      incremental && eq.include_redundant && eq.min_good_snapshots <= 1;

  InferenceOptions replicate_inference = options.inference;
  // Fast-path solves share the skeleton's Gram matrix, so the warm
  // seed's Cholesky factor is measurement-independent: factor it once
  // here and let every replicate copy it (fast_solver). The fallback
  // path harvests its own system — different Gram — so it only gets the
  // plain warm_start list (re-admitted against its own matrix), and the
  // variance-weighted path rebuilds the Gram per replicate, which
  // invalidates the factor the same way.
  linalg::SolverOptions fast_solver = replicate_inference.solver;
  linalg::NnlsWarmFactor warm_factor;
  if (options.warm_start && incremental) {
    replicate_inference.solver.warm_start = point.active_set;
    fast_solver.warm_start = point.active_set;
    if (weight_samples == 0) {
      warm_factor = linalg::seed_warm_factor(skeleton, point.active_set);
      fast_solver.nnls_warm_factor = &warm_factor;
    }
  }

  const auto run_replicate = [&](std::size_t r, linalg::GramSystem& scratch,
                                 std::vector<double>& ys,
                                 sim::ResampleScratch& resample_scratch,
                                 std::vector<std::uint32_t>& picks,
                                 double& resample_seconds) {
    Rng rng = replicate_rng(options.seed, r);
    draw_picks_into(n, rng, picks);
    Stopwatch resample_watch;
    const sim::EmpiricalMeasurement measurement(
        block.resample(picks, resample_scratch));
    resample_seconds += resample_watch.seconds();
    if (support_reusable) {
      bool supports_hold = true;
      // Intermediate demotion rounds first: if any of their equations
      // lost usability the demotion decisions may diverge.
      for (const std::vector<graph::PathId>& wp : harvest.witness_paths) {
        const double prob = wp.size() == 1
                                ? measurement.good_prob(wp[0])
                                : measurement.pair_good_prob(wp[0], wp[1]);
        if (!sim::log_estimate(prob, n, eq.min_good_snapshots).usable) {
          supports_hold = false;
          break;
        }
      }
      for (std::size_t i = 0;
           supports_hold && i < harvest.system.equations.size(); ++i) {
        const Equation& e = harvest.system.equations[i];
        const double prob =
            e.paths.size() == 1
                ? measurement.good_prob(e.paths[0])
                : measurement.pair_good_prob(e.paths[0], e.paths[1]);
        const sim::LogProbEstimate est =
            sim::log_estimate(prob, n, eq.min_good_snapshots);
        if (!est.usable) {
          supports_hold = false;
          break;
        }
        ys[i] = est.log_prob;
      }
      if (supports_hold) {
        const linalg::SparseSystemView view =
            sparse_view_with_rhs(harvest.system, ys, weight_samples);
        linalg::LogSystemSolution solution;
        if (weight_samples == 0) {
          // Same supports, same G: refresh only the rhs products of the
          // stripe's skeleton copy in place.
          linalg::refresh_gram_rhs(scratch, view);
          solution = linalg::solve_log_system(view, scratch, fast_solver);
        } else {
          // Variance weights scale every row by its replicate estimate,
          // so the Gram matrix itself changes; rebuild it — the harvest
          // skip still amortizes the expensive part.
          linalg::GramSystem gs;
          linalg::accumulate_gram(gs, view);
          solution = linalg::solve_log_system(view, gs,
                                              replicate_inference.solver);
        }
        InferenceResult replicate;
        apply_solution(replicate, std::move(solution));
        estimates[r] = std::move(replicate.congestion_prob);
        return;
      }
    }
    // Support changed (or the configuration cannot prove it stable):
    // the reference computation verbatim.
    fell_back[r] = 1;
    try {
      estimates[r] = infer_congestion(g, paths, coverage, sets,
                                      measurement, replicate_inference)
                         .congestion_prob;
    } catch (const Error&) {
      // Replicate lost every usable equation; counted as skipped below.
    }
  };

  // One stripe of replicates per thread of the fan-out (a replicate's own
  // calls run inline), each with one skeleton copy: refresh_gram_rhs
  // rewrites only the rhs products in place, so G is shared by the whole
  // stripe. The resample scratch and pick buffer are likewise hoisted —
  // the source transpose is built once per stripe and every replicate in
  // it reuses the same gather buffer.
  const std::size_t stripes =
      std::min(util::parallel_width(), options.replicates);
  std::vector<double> stripe_resample_seconds(stripes);
  util::parallel_for(stripes, [&](std::size_t w) {
    linalg::GramSystem scratch = skeleton;
    std::vector<double> ys(harvest.system.equations.size());
    sim::ResampleScratch resample_scratch;
    std::vector<std::uint32_t> picks;
    for (std::size_t r = w; r < options.replicates; r += stripes) {
      run_replicate(r, scratch, ys, resample_scratch, picks,
                    stripe_resample_seconds[w]);
    }
  });
  for (const double s : stripe_resample_seconds) {
    result.resample_seconds += s;
  }

  // Reduction in replicate order — worker-count independent by design.
  std::vector<std::vector<double>> samples(links);
  for (std::size_t r = 0; r < options.replicates; ++r) {
    if (fell_back[r]) ++result.reharvested;
    if (estimates[r].empty()) {
      ++result.skipped;
      continue;
    }
    for (graph::LinkId e = 0; e < links; ++e) {
      samples[e].push_back(estimates[r][e]);
    }
    ++result.replicates;
  }
  TOMO_REQUIRE(result.replicates >= 2,
               "bootstrap: too few usable replicates");
  if (result.skipped * 10 > options.replicates) {
    std::fprintf(stderr,
                 "[bootstrap] warning: %zu of %zu replicates lost all "
                 "usable equations and were dropped; intervals rest on "
                 "%zu replicates\n",
                 result.skipped, options.replicates, result.replicates);
  }

  const double tail = (1.0 - options.confidence) / 2.0;
  result.lower.resize(links);
  result.upper.resize(links);
  for (graph::LinkId e = 0; e < links; ++e) {
    const Interval interval =
        percentile_pair(samples[e], 100.0 * tail, 100.0 * (1.0 - tail));
    result.lower[e] = interval.lo;
    result.upper[e] = interval.hi;
  }
  return result;
}

}  // namespace tomo::core
