// shard-hier: core::infer_sharded with a 400-path shard cap and 16
// precision replicates on hier-10k (~10.7k paths) at 2000 snapshots, one
// call per iteration with jobs = nproc. The only workload at 10k-path
// scale and the only one that plans shards and reconciles shared links.
//
// The traced run adds a replay of core::plan_shards on the refined
// structure (what infer_sharded plans internally) and the same call at
// jobs 1; whatever infer_sharded spends outside planning is reported as
// unattributed until the program records its own spans.
#include <algorithm>
#include <iostream>

#include "bench.hpp"
#include "core/correlation_algorithm.hpp"
#include "core/experiment.hpp"
#include "core/sharded_inference.hpp"
#include "corr/identifiability.hpp"
#include "sim/measurement.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kSetupTag = 0x5e7;
constexpr std::uint64_t kCallTag = 0x5d00;
constexpr std::size_t kMinCalls = 3;

/// Every path lands in exactly one shard.
bool partitions_paths(const core::ShardPlan& plan, std::size_t paths) {
  std::vector<std::size_t> seen(paths, 0);
  for (const core::Shard& shard : plan.shards) {
    for (graph::PathId p : shard.paths) {
      if (p >= paths) return false;
      ++seen[p];
    }
  }
  return std::all_of(seen.begin(), seen.end(),
                     [](std::size_t n) { return n == 1; });
}

/// Checks one call; each shard is one operation, failed when the shard
/// failed, the plan is not a partition of the paths, or `plan_ok` (a check
/// made by the caller on the plan) is false.
void check_call(Report& report, const core::ShardedInferenceResult& result,
                std::size_t paths, bool plan_ok = true) {
  const bool partition = report.check(
      "shard-hier.plan_partitions_paths",
      partitions_paths(result.plan, paths),
      "a path is missing from the plan or assigned to several shards");
  std::size_t failed = 0;
  for (const core::ShardTelemetry& shard : result.shards) {
    failed += shard.failed ? 1 : 0;
  }
  report.check("shard-hier.no_failed_shards", failed == 0,
               std::to_string(failed) + " shards failed");
  const std::size_t shards = result.plan.shards.size();
  report.operations(shards, partition && plan_ok ? failed : shards);
}

}  // namespace

void run_shard_hier(const Args& args, Tracer& tracer, Report& report) {
  sim::SimulatorConfig sim;
  sim.snapshots = args.test_scale ? 300 : 2000;
  sim.packets_per_path = args.test_scale ? 500 : 4000;
  sim.seed = tomo::mix_seed(args.seed, kSetupTag);
  const Setup setup = run_setup(args, "hier-10k", sim, tracer, report);
  const core::ScenarioInstance& inst = setup.instance;
  const std::size_t nproc = tomo::util::resolve_jobs(0);

  core::ShardedOptions options;
  options.max_shard_paths = args.test_scale ? 16 : 400;
  options.precision_replicates = 16;
  options.jobs = nproc;

  const auto call = [&](std::size_t i, std::size_t jobs) {
    core::ShardedOptions o = options;
    o.seed = tomo::mix_seed(args.seed, kCallTag + i);
    o.jobs = jobs;
    return core::infer_sharded(inst.graph, inst.paths, *setup.coverage,
                               inst.declared_sets, setup.block, o);
  };
  const std::vector<std::size_t> population =
      core::potentially_congested_links(inst.paths,
                                        sim::EmpiricalMeasurement(setup.block));

  ScaledTimes untraced;
  std::vector<double> errs;
  std::size_t shards = 0;
  (void)call(0, nproc);  // warm-up: thread pool, allocator, caches
  run_for(tracer.enabled() ? args.seconds / 3 : args.seconds, kMinCalls,
          [&](std::size_t i) {
            const Clock::time_point c0 = Clock::now();
            const core::ShardedInferenceResult result = call(i, nproc);
            untraced.add(seconds_between(c0, Clock::now()));
            check_call(report, result, inst.paths.size());
            errs.push_back(
                mean_error(inst, result.congestion_prob, population));
            shards += result.plan.shards.size();
          });
  const std::vector<double>& untraced_s = untraced.wall_s;

  if (!tracer.enabled()) {
    report_speed(report, untraced, static_cast<double>(shards), untraced,
                 nullptr);
    // Over the first kMinCalls calls only: deterministic in the seed.
    errs.resize(kMinCalls);
    report.metric("mean_err", tomo::mean(errs), "prob");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Counts come from the first traced call, so they repeat exactly at a
  // fixed seed.
  std::vector<double> traced_s, plan_s, unident_s;
  core::ShardedInferenceResult first;
  run_for(args.seconds / 3, 2, [&](std::size_t i) {
    core::ShardedInferenceResult result;
    traced_s.push_back(timed(tracer, "core.infer_sharded", -1,
                             [&] { result = call(1000 + i, nproc); }));

    // Replay of the planning step on the structure infer_sharded plans
    // with: the declared sets after the hoisted Assumption-4 refinement.
    const int replay = tracer.open("replay", -1, true);
    std::vector<graph::LinkId> refined;
    unident_s.push_back(timed(tracer, "corr.unidentifiable", replay, [&] {
      refined = tomo::corr::structurally_unidentifiable_links(
          inst.graph, inst.paths, inst.declared_sets);
    }, true));
    const tomo::corr::CorrelationSets sets =
        core::demote_to_singletons(inst.declared_sets, refined);
    core::ShardPlan plan;
    plan_s.push_back(timed(tracer, "core.plan_shards", replay, [&] {
      plan = core::plan_shards(inst.paths, *setup.coverage, sets,
                               options.max_shard_paths);
    }, true));
    tracer.close(replay);
    bool same = plan.shards.size() == result.plan.shards.size();
    for (std::size_t s = 0; same && s < plan.shards.size(); ++s) {
      same = plan.shards[s].paths == result.plan.shards[s].paths;
    }
    check_call(report, result, inst.paths.size(),
               report.check("shard-hier.plan_replay_matches", same,
                            "replayed plan differs from infer_sharded's "
                            "plan"));
    if (i == 0) first = std::move(result);
  });
  core::ShardedInferenceResult serial;
  const double jobs1_s = timed(tracer, "core.infer_sharded.jobs1", -1,
                               [&] { serial = call(0, 1); });
  check_call(report, serial, inst.paths.size());

  const double shard_infer_s = median(traced_s);
  std::size_t max_paths = 0, failed = 0;
  for (const core::Shard& shard : first.plan.shards) {
    max_paths = std::max(max_paths, shard.paths.size());
  }
  for (const core::ShardTelemetry& shard : first.shards) {
    failed += shard.failed ? 1 : 0;
  }
  const double shard_count = static_cast<double>(first.plan.shards.size());
  report.metric("corr.unidentifiable_s", median(unident_s), "s");
  report.metric("core.plan_shards_s", median(plan_s), "s");
  report.metric("core.sharded.shard_paths_max_over_mean",
                static_cast<double>(max_paths) * shard_count /
                    static_cast<double>(inst.paths.size()),
                "ratio");
  report.metric("core.sharded.shards", shard_count, "count");
  report.metric("core.sharded.shared_links",
                static_cast<double>(first.plan.shared_links), "count");
  report.metric("core.sharded.averaged_links",
                static_cast<double>(first.averaged_links), "count");
  report.metric("core.sharded.resolved_links",
                static_cast<double>(first.resolved_links), "count");
  report.metric("core.sharded.joint_solves",
                static_cast<double>(first.joint_solves), "count");
  report.metric("core.sharded.failed_shards", static_cast<double>(failed),
                "count");
  report.metric("core.sharded.jobs1_s", jobs1_s, "s");
  report.metric("core.sharded.scaling_eff",
                jobs1_s / (static_cast<double>(nproc) * shard_infer_s),
                "ratio");
  report.metric("core.sharded.unattributed_s", shard_infer_s - median(plan_s),
                "s");
  report.metric("trace.overhead_frac",
                shard_infer_s / median(untraced_s) - 1.0, "ratio");
}

}  // namespace perfbench
