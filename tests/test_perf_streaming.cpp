// Perf-regression smoke for the streaming inference path (ctest label:
// "perf").
//
// Streams a full-scale waxman-full trace (870 paths, 856 links at the
// canonical topology seed; 8192 snapshots) through StreamingInference in
// 32 windows of 256 and holds the median warm window — append, re-harvest
// and warm-started solve — under a committed budget. In the steady state
// the equation support is unchanged, G is reused, and the solve starts
// from the factor the previous window's solve ended with, so a window
// costs the re-harvest plus a few factor edits: 12-16 ms in Release on
// one thread of a shared 4-vCPU x86-64 VM. Re-admitting the previous
// active set into a fresh factor every window (one O(k^3) rebuild, k ~ 500
// columns) with dense passes over G's zero entries in the active-set loop
// measured 42-45 ms on the same host, over this budget. Exactness of the
// streamed path is pinned by test_streaming_fast.cpp; this suite only
// watches the clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "sim/simulator.hpp"
#include "stream/streaming_inference.hpp"
#include "stream/streaming_measurement.hpp"
#include "util/thread_pool.hpp"

namespace tomo::stream {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define TOMO_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TOMO_PERF_SANITIZED 1
#endif
#endif

// Median warm window, about 2x the median of its build flavor and below
// what re-admitting the active set every window costs. A budget this
// close to the median cannot be shared across flavors: unoptimized (-O0)
// builds run this path ~9x slower (~115 ms, against ~340 ms re-admitting),
// so they get their own base. Sanitizers scale the base 4x, as in the
// other perf suites (ASan+UBSan at -O0 measured ~300 ms).
#if defined(__OPTIMIZE__)
constexpr double kBaseBudgetSeconds = 0.025;
#else
constexpr double kBaseBudgetSeconds = 0.230;
#endif
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 4 * kBaseBudgetSeconds;
#else
constexpr double kBudgetSeconds = kBaseBudgetSeconds;
#endif
constexpr std::size_t kSnapshots = 8192;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kSessions = 3;

TEST(PerfStreaming, WaxmanFullWarmWindowStaysWithinBudget) {
  const core::ScenarioInstance inst = core::build_scenario(
      core::ScenarioCatalog::instance().at("waxman-full").config);
  ASSERT_GE(inst.paths.size(), 800u) << "waxman-full lost its full scale";

  sim::SimulatorConfig sc;
  sc.snapshots = kSnapshots;
  sc.packets_per_path = 4000;
  sc.mode = sim::PacketMode::kBinomial;
  sc.seed = 7;
  const sim::SimulationResult simr =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);

  const std::vector<sim::MeasurementBlock> windows =
      split_windows(simr.measurement, kWindow);

  // One thread, so a busy host slows the windows rather than stalling a
  // fan-out on its slowest worker; the best of kSessions session medians,
  // so one busy stretch does not decide the verdict.
  const util::ScopedWidth width(1);
  double best_median = 0.0;
  for (std::size_t session = 0; session < kSessions; ++session) {
    StreamingInference inference(inst.graph, inst.paths, inst.declared_sets);
    std::vector<double> warm_seconds;
    std::size_t reused = 0;
    for (const sim::MeasurementBlock& window : windows) {
      const WindowEstimate estimate = inference.push_window(window);
      ASSERT_TRUE(estimate.usable) << "window " << estimate.window;
      reused += estimate.gram_reused;
      if (estimate.warm_started) warm_seconds.push_back(estimate.seconds);
    }
    ASSERT_EQ(warm_seconds.size(), windows.size() - 1);
    EXPECT_GE(reused, warm_seconds.size() - 2)
        << "the steady state should reuse the Gram on nearly every window";
    std::nth_element(warm_seconds.begin(),
                     warm_seconds.begin() + warm_seconds.size() / 2,
                     warm_seconds.end());
    const double median = warm_seconds[warm_seconds.size() / 2];
    best_median = session == 0 ? median : std::min(best_median, median);
  }
  EXPECT_LT(best_median, kBudgetSeconds)
      << "streaming window regressed: median warm window "
      << best_median * 1e3 << " ms (best of " << kSessions
      << " sessions of " << windows.size() << " windows of " << kWindow
      << " snapshots; budget " << kBudgetSeconds * 1e3 << " ms)";
  // Telemetry for the CI log; not an assertion.
  std::cout << "[perf] waxman-full streaming: median warm window "
            << best_median * 1e3 << " ms (best of " << kSessions
            << " sessions of " << windows.size() << " windows)\n";
}

}  // namespace
}  // namespace tomo::stream
