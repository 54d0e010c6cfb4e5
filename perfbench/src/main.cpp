// tomo_perfbench: runs one named workload of the tomo benchmark for a
// fixed wall-time budget, checks its outputs, and prints every metric by
// name with its unit. The last stdout line is the result object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage: tomo_perfbench --workload <mesh-batch|stream-replay|shard-hier>
//          --seed <n> --seconds <s> --trace <0|1>
//          [--scale full|test]
//
// --trace 0 measures the end-to-end metrics; --trace 1 times each layer's
// public calls under spans and reports the per-layer metrics; the spans are
// written as JSON lines to .bench_build/spans/<workload>-seed<n>.jsonl when
// the run ends. --scale test runs the self-test scale.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "core/scenario_catalog.hpp"
#include "metrics/error_metrics.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

using tomo::mean;
using tomo::percentile;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  TOMO_REQUIRE(std::isfinite(value), "metric " + name + " is not finite");
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [&](const Check& c) { return c.name == name; });
  if (it == checks_.end()) {
    checks_.push_back({name});
    it = checks_.end() - 1;
  }
  ++it->runs;
  if (!ok) {
    ++it->fails;
    std::cerr << "perfbench: check " << name << " failed: " << detail << '\n';
  }
  return ok;
}

void Report::print() const {
  bool correct = failed_ == 0 && attempted_ > 0;
  for (const Check& c : checks_) {
    std::cout << "check " << c.name << ' ' << (c.fails == 0 ? "pass" : "FAIL")
              << ' ' << c.runs << ' ' << c.fails << '\n';
    correct = correct && c.fails == 0;
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           fmt(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

Tracer::Tracer(std::string workload, bool enabled)
    : workload_(std::move(workload)),
      enabled_(enabled),
      origin_(Clock::now()) {}

int Tracer::open(const std::string& name, int parent, bool replay) {
  if (!enabled_) return -1;
  const double now = seconds_between(origin_, Clock::now());
  spans_.push_back({name, parent, replay, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(origin_, Clock::now());
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(path);
  TOMO_REQUIRE(os.good(), "cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"parent\":" << s.parent << ",\"workload\":\"" << workload_
       << "\",\"replay\":" << (s.replay ? "true" : "false")
       << ",\"start_s\":" << fmt(s.start) << ",\"end_s\":" << fmt(s.end)
       << "}\n";
  }
  TOMO_REQUIRE(os.good(), "short write of spans to " + path);
}

namespace {

volatile double probe_sink;  // keeps the probe's work observable

}  // namespace

double run_probe() {
  // A dependent multiply-add sweep over two fresh 1 MiB arrays (2 MiB, the
  // size of one core's L2), filled before the clock starts; about 15 ms.
  // The work is fixed, so only the host's speed moves its time.
  constexpr std::size_t kWords = std::size_t{1} << 17;  // 1 MiB of doubles
  constexpr int kRounds = 120;
  std::vector<double> a(kWords, 1.0), b(kWords, 0.5);
  double acc = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kWords; ++i) {
      acc += a[i] * b[i];
      b[i] = acc * 1e-12;
    }
  }
  const double s = seconds_between(t0, Clock::now());
  probe_sink = acc;
  return s;
}

SpeedGauge::SpeedGauge() {
  (void)run_probe();  // warm-up
  probes_s_.push_back(run_probe());
}

double SpeedGauge::scale() {
  probes_s_.push_back(run_probe());
  const double around =
      0.5 * (probes_s_[probes_s_.size() - 2] + probes_s_.back());
  return kProbeReferenceSeconds / around;
}

double SpeedGauge::median_probe_s() const { return median(probes_s_); }

void report_speed(Report& report, const ScaledTimes& latency, double ops,
                  const ScaledTimes& busy, const SpeedGauge* gauge) {
  std::vector<double> scaled_ms;
  for (std::size_t i = 0; i < latency.wall_s.size(); ++i) {
    scaled_ms.push_back(1e3 * latency.wall_s[i] * latency.scale[i]);
  }
  double wall_busy_s = 0.0, scaled_busy_s = 0.0;
  for (std::size_t i = 0; i < busy.wall_s.size(); ++i) {
    wall_busy_s += busy.wall_s[i];
    scaled_busy_s += busy.wall_s[i] * busy.scale[i];
  }
  std::cout << "samples latency_ms_p50 " << scaled_ms.size() << '\n';
  if (gauge != nullptr) {
    std::cout << "wall latency_ms_p50 " << fmt(1e3 * median(latency.wall_s))
              << " ops_per_s " << fmt(ops / wall_busy_s) << '\n'
              << "probe_ms_p50 " << fmt(1e3 * gauge->median_probe_s())
              << " probes " << gauge->probes() << '\n';
  }
  report.metric("latency_ms_p50", median(scaled_ms), "ms");
  report.metric("ops_per_s", ops / scaled_busy_s, "1/s");
}

double median(std::vector<double> values) { return pct(std::move(values), 50); }

double pct(std::vector<double> values, double p) {
  TOMO_REQUIRE(!values.empty(), "percentile of an empty sample");
  return percentile(values, p);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Registry entry `name` at its canonical topology seed, shrunk for the
/// self-test.
core::ScenarioConfig scenario_config(const std::string& name,
                                     bool test_scale) {
  const core::ScenarioConfig config =
      core::ScenarioCatalog::instance().at(name).config;
  return test_scale ? core::shrink_for_tests(config) : config;
}

}  // namespace

Setup run_setup(const Args& args, const std::string& scenario_name,
                const sim::SimulatorConfig& sim, Tracer& tracer,
                Report& report, const std::function<void(Setup&)>& extra) {
  const core::ScenarioConfig scenario =
      scenario_config(scenario_name, args.test_scale);
  constexpr std::size_t min_repeats = 3;
  const double min_seconds = args.test_scale ? 0.0 : 2.0;
  Setup setup;
  std::vector<double> scaled_s;
  SpeedGauge gauge;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0;
       r < min_repeats || seconds_between(start, Clock::now()) < min_seconds;
       ++r) {
    const int root = tracer.open("setup");
    const Clock::time_point t0 = Clock::now();
    setup.build_s.push_back(timed(tracer, "topogen.build_scenario", root, [&] {
      setup.instance = core::build_scenario(scenario);
    }));
    setup.coverage_s.push_back(timed(tracer, "graph.coverage", root, [&] {
      setup.coverage = std::make_unique<graph::CoverageIndex>(
          setup.instance.graph, setup.instance.paths);
    }));
    setup.simulate_s.push_back(timed(tracer, "sim.simulate", root, [&] {
      setup.block = sim::simulate(setup.instance.graph, setup.instance.paths,
                                  *setup.instance.truth, sim)
                        .measurement;
    }));
    if (extra) extra(setup);
    setup.total_s.push_back(seconds_between(t0, Clock::now()));
    tracer.close(root);
    scaled_s.push_back(setup.total_s.back() * gauge.scale());
  }
  std::cout << "scenario " << scenario_name << " paths "
            << setup.instance.paths.size() << " links "
            << setup.instance.graph.link_count() << " snapshots "
            << setup.block.snapshot_count << '\n';
  if (tracer.enabled()) {
    const double simulate_s = median(setup.simulate_s);
    report.metric("topogen.build_scenario_s", median(setup.build_s), "s");
    report.metric("graph.coverage_s", median(setup.coverage_s), "s");
    report.metric("sim.simulate_s", simulate_s, "s");
    report.metric("sim.path_snapshots_per_s",
                  static_cast<double>(setup.block.path_count) *
                      static_cast<double>(setup.block.snapshot_count) /
                      simulate_s,
                  "1/s");
  } else {
    std::cout << "wall setup_s " << fmt(median(setup.total_s)) << '\n';
    report.metric("setup_s", median(scaled_s), "s");
  }
  return setup;
}

double mean_error(const core::ScenarioInstance& instance,
                  const std::vector<double>& estimate,
                  const std::vector<std::size_t>& population) {
  return mean(tomo::metrics::absolute_errors(instance.true_marginals,
                                             estimate, population));
}

double detail_count(const std::string& detail, const std::string& key) {
  const std::string needle = key + "=";
  const std::size_t at = detail.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::stod(detail.substr(at + needle.size()));
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "tomo_perfbench: " << why
            << "\nusage: tomo_perfbench --workload <mesh-batch|stream-replay|"
               "shard-hier> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale full|test]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "test") usage("--scale: full|test");
        args.test_scale = value == "test";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// The environment stamp: results from a non-Release build or a
/// forced-scalar bit-kernel table are flagged as not comparable with a
/// Release/AVX2 baseline.
void print_environment(const perfbench::Args& args) {
  const std::string kernels = tomo::util::bitops::active().name;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool forced_scalar =
      tomo::util::bitops::simd_available() && kernels == "scalar";
  const bool comparable = build_type == "Release" && !forced_scalar;
  std::cout << "env {\"workload\":\"" << args.workload
            << "\",\"seed\":" << args.seed
            << ",\"scale\":\"" << (args.test_scale ? "test" : "full")
            << "\",\"nproc\":" << tomo::util::resolve_jobs(0)
            << ",\"bitops\":\"" << kernels << "\",\"forced_scalar\":"
            << (forced_scalar ? "true" : "false") << ",\"build_type\":\""
            << build_type << "\",\"compiler\":\"" << PERFBENCH_COMPILER
            << "\",\"comparable\":" << (comparable ? "true" : "false")
            << "}\n";
  if (!comparable) {
    std::cerr << "perfbench: WARNING: non-Release build or forced-scalar "
                 "kernels; do not compare against a Release/AVX2 baseline\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  void (*run)(const perfbench::Args&, perfbench::Tracer&,
              perfbench::Report&) = nullptr;
  if (args.workload == "mesh-batch") run = perfbench::run_mesh_batch;
  if (args.workload == "stream-replay") run = perfbench::run_stream_replay;
  if (args.workload == "shard-hier") run = perfbench::run_shard_hier;
  if (run == nullptr) usage("unknown workload " + args.workload);

  try {
    print_environment(args);
    perfbench::Tracer tracer(args.workload, args.trace);
    perfbench::Report report;
    run(args, tracer, report);
    tracer.write(".bench_build/spans/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".jsonl");
    report.print();
  } catch (const std::exception& e) {
    std::cerr << "tomo_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
