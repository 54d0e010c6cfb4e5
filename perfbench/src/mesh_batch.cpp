// mesh-batch: core::run_experiment on waxman-full, one trial seed per
// iteration, back to back on one caller with every `jobs` field at 1 —
// the cold single-threaded pipeline (simulation, harvest, cold NNLS,
// independence baseline).
//
// The traced run re-executes each trial as run_experiment's public calls,
// one span each, checks the decomposition bitwise against run_experiment,
// and reports what share of run_experiment's wall time the spans cover.
// Then it times the bootstrap layer on the same measurement block
// (trace_bootstrap in bootstrap_layer.cpp).
#include <cstring>
#include <map>
#include <optional>

#include "bench.hpp"
#include "core/correlation_algorithm.hpp"
#include "core/experiment.hpp"
#include "core/independence_algorithm.hpp"
#include "corr/identifiability.hpp"
#include "linalg/solvers.hpp"
#include "sim/measurement.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kSetupTag = 0x5e7;
constexpr std::uint64_t kTrialTag = 0x51000;
constexpr std::size_t kMinTrials = 3;

sim::SimulatorConfig sim_config(const Args& args, std::uint64_t seed) {
  sim::SimulatorConfig config;
  config.snapshots = args.test_scale ? 300 : 2000;
  config.packets_per_path = args.test_scale ? 500 : 4000;
  config.seed = seed;
  return config;  // jobs stays 1
}

core::ExperimentConfig trial_config(const Args& args, std::size_t trial) {
  core::ExperimentConfig config;
  config.sim = sim_config(args, tomo::mix_seed(args.seed, kTrialTag + trial));
  return config;  // default InferenceOptions: every jobs field is 1
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Decomposed {
  core::InferenceResult correlation;
  core::InferenceResult independence;
  double stage_seconds = 0.0;  // sum of the stage spans
  double wall_seconds = 0.0;   // the enclosing core.trial span
};

/// run_experiment's pipeline, one public call per span. Per-stage wall
/// seconds are appended to `stages`.
using StageTimes = std::map<std::string, std::vector<double>>;

Decomposed decomposed_trial(const core::ScenarioInstance& inst,
                            const core::ExperimentConfig& config,
                            Tracer& tracer, StageTimes& stages) {
  Decomposed d;
  const int root = tracer.open("core.trial");
  const Clock::time_point t0 = Clock::now();
  const auto stage = [&](const std::string& name, auto&& fn) {
    const double s = timed(tracer, name, root, fn);
    stages[name].push_back(s);
    d.stage_seconds += s;
  };

  std::optional<graph::CoverageIndex> coverage;
  stage("graph.coverage",
        [&] { coverage.emplace(inst.graph, inst.paths); });
  std::optional<sim::EmpiricalMeasurement> measurement;
  stage("sim.simulate", [&] {
    measurement.emplace(
        sim::simulate(inst.graph, inst.paths, *inst.truth, config.sim)
            .measurement);
  });
  stage("core.potentially_congested", [&] {
    (void)core::potentially_congested_links(inst.paths, *measurement);
  });
  stage("core.harvest", [&] {
    core::RefinedHarvest harvest = core::harvest_refined_system(
        inst.graph, inst.paths, *coverage, inst.declared_sets, *measurement,
        config.inference);
    d.correlation.system = std::move(harvest.system);
    d.correlation.refined_links = std::move(harvest.refined_links);
  });
  tomo::linalg::LogSystemSolution solution;
  stage("linalg.solve", [&] {
    solution = tomo::linalg::solve_log_system(
        core::sparse_view(d.correlation.system), config.inference.solver);
  });
  stage("core.apply_solution",
        [&] { core::apply_solution(d.correlation, std::move(solution)); });
  stage("core.independence", [&] {
    d.independence = core::infer_congestion_independent(
        inst.graph, inst.paths, *coverage, *measurement, config.inference);
  });
  d.wall_seconds = seconds_between(t0, Clock::now());
  tracer.close(root);
  return d;
}

bool check_decomposition(Report& report, const core::ExperimentResult& whole,
                         const Decomposed& parts, std::size_t trial) {
  return report.check("mesh-batch.decomposition_bitwise",
               bitwise_equal(whole.correlation.congestion_prob,
                             parts.correlation.congestion_prob) &&
                   bitwise_equal(whole.independence.congestion_prob,
                                 parts.independence.congestion_prob),
                      "trial " + std::to_string(trial) +
                          ": decomposed estimate differs from run_experiment");
}

struct Trial {
  core::ExperimentResult result;
  double seconds = 0.0;
  double corr_err = 0.0;
  bool ok = false;  // the checks on this trial so far passed
};

/// Runs one trial through run_experiment; checks the paper's claim that
/// the correlation algorithm beats the independence baseline.
Trial checked_trial(const Args& args, const Setup& setup, Report& report,
                    std::size_t trial) {
  Trial t;
  const core::ExperimentConfig config = trial_config(args, trial);
  const Clock::time_point t0 = Clock::now();
  t.result = core::run_experiment(setup.instance, config);
  t.seconds = seconds_between(t0, Clock::now());
  t.corr_err = tomo::mean(t.result.correlation_errors());
  const double ind_err = tomo::mean(t.result.independence_errors());
  t.ok = report.check("mesh-batch.correlation_beats_independence",
                      t.corr_err < ind_err,
                      "trial " + std::to_string(trial) +
                          ": correlation mean_err " +
                          std::to_string(t.corr_err) + " >= independence " +
                          std::to_string(ind_err));
  return t;
}

}  // namespace

void run_mesh_batch(const Args& args, Tracer& tracer, Report& report) {
  const Setup setup = run_setup(
      args, "waxman-full",
      sim_config(args, tomo::mix_seed(args.seed, kSetupTag)), tracer, report);

  if (!tracer.enabled()) {
    std::vector<double> corr_errs;
    ScaledTimes trial_s;
    Trial first;
    SpeedGauge gauge;
    const std::size_t trials =
        run_for(args.seconds, kMinTrials, [&](std::size_t i) {
          Trial t = checked_trial(args, setup, report, i);
          trial_s.add(t.seconds, gauge.scale());
          corr_errs.push_back(t.corr_err);
          if (i == 0) {
            first = std::move(t);  // its operation is counted below
          } else {
            report.operation(t.ok);
          }
        });
    // Outside the timed loop: the decomposition reproduces trial 0.
    StageTimes unused;
    const bool same = check_decomposition(
        report, first.result,
        decomposed_trial(setup.instance, trial_config(args, 0), tracer,
                         unused),
        0);
    report.operation(first.ok && same);
    report_speed(report, trial_s, static_cast<double>(trials), trial_s,
                 &gauge);
    // Over the first kMinTrials trials only, so it is deterministic in the
    // seed whatever the machine's speed.
    corr_errs.resize(kMinTrials);
    report.metric("mean_err", tomo::mean(corr_errs), "prob");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  StageTimes stages;
  std::vector<double> trial_s, coverage, decomposed_s, unident_s, gram_s;
  // Counts come from trial 0, so they repeat exactly at a fixed seed.
  core::EquationSystem system0;
  std::string detail0;
  std::size_t demoted0 = 0;
  run_for(args.seconds, kMinTrials, [&](std::size_t i) {
    const Trial whole = checked_trial(args, setup, report, i);
    trial_s.push_back(whole.seconds);

    Decomposed parts =
        decomposed_trial(setup.instance, trial_config(args, i), tracer, stages);
    const bool same = check_decomposition(report, whole.result, parts, i);
    report.operation(whole.ok && same);
    coverage.push_back(parts.stage_seconds / whole.seconds);
    decomposed_s.push_back(parts.wall_seconds);

    // Replays, outside core.trial: sub-steps the public calls above run
    // internally, re-run on the same inputs only to time them.
    const int replay = tracer.open("replay", -1, true);
    unident_s.push_back(timed(tracer, "corr.unidentifiable", replay, [&] {
      (void)tomo::corr::structurally_unidentifiable_links(
          setup.instance.graph, setup.instance.paths,
          setup.instance.declared_sets);
    }, true));
    gram_s.push_back(timed(tracer, "linalg.gram", replay, [&] {
      (void)tomo::linalg::sparse_gram(
          core::sparse_view(parts.correlation.system), 1);
    }, true));
    tracer.close(replay);
    if (i == 0) {
      demoted0 = parts.correlation.refined_links.size();
      detail0 = parts.correlation.solver_detail;
      system0 = std::move(parts.correlation.system);
    }
  });

  report.metric("graph.coverage_s", median(stages["graph.coverage"]), "s");
  report.metric("sim.simulate_s", median(stages["sim.simulate"]), "s");
  report.metric("corr.unidentifiable_s", median(unident_s), "s");
  report.metric("core.harvest_s", median(stages["core.harvest"]), "s");
  report.metric("core.independence_s", median(stages["core.independence"]),
                "s");
  const double candidates =
      static_cast<double>(system0.pair_candidates_tried);
  report.metric("core.harvest.pair_candidates", candidates, "count");
  report.metric("core.harvest.equations",
                static_cast<double>(system0.equations.size()), "count");
  report.metric("core.harvest.accept_ratio",
                candidates > 0
                    ? static_cast<double>(system0.n2) / candidates
                    : 0.0,
                "ratio");
  report.metric("core.harvest.demoted_links", static_cast<double>(demoted0),
                "count");
  report.metric("linalg.gram_s", median(gram_s), "s");
  report.metric("linalg.solve_s", median(stages["linalg.solve"]), "s");
  report.metric("linalg.nnls_iters", detail_count(detail0, "iters"), "count");
  report.metric("linalg.nnls_refactors", detail_count(detail0, "refactor"),
                "count");
  report.metric("core.trial_coverage", median(coverage), "ratio");
  report.metric("trace.overhead_frac",
                median(decomposed_s) / median(trial_s) - 1.0, "ratio");

  trace_bootstrap(args, setup, tracer, report);
}

}  // namespace perfbench
