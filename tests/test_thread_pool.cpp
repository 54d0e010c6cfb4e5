// The executor and parallel_for underpin every layer's determinism
// contract: results land by index, exceptions propagate, the width never
// changes observable output, one persistent pool serves every call, and
// nested calls run inline instead of oversubscribing.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using tomo::util::ScopedWidth;
using tomo::util::parallel_for;
using tomo::util::parallel_width;
using tomo::util::resolve_jobs;

/// Threads of this process: one /proc/self/task entry each (Linux). The
/// executor's workers never exit, so the count only grows.
std::size_t process_threads() {
  namespace fs = std::filesystem;
  const fs::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(fs::begin(tasks), fs::end(tasks)));
}

TEST(ResolveJobs, ZeroMeansHardwareAndAtLeastOne) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 5u}) {
    const ScopedWidth width(jobs);
    std::vector<int> hits(97, 0);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 97)
        << "jobs=" << jobs;
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, HandlesZeroAndOneItems) {
  const ScopedWidth width(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsLowestIndexExceptionAfterAllSettle) {
  const ScopedWidth width(4);
  std::atomic<int> completed{0};
  try {
    parallel_for(20, [&](std::size_t i) {
      if (i == 3 || i == 11) {
        throw tomo::Error("boom at " + std::to_string(i));
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected tomo::Error";
  } catch (const tomo::Error& e) {
    EXPECT_EQ(e.message(), "boom at 3");  // lowest index wins
  }
  EXPECT_EQ(completed.load(), 18);  // every non-throwing item still ran
}

TEST(ParallelFor, InlinePathAlsoThrows) {
  const ScopedWidth width(1);
  EXPECT_THROW(parallel_for(5,
                            [](std::size_t i) {
                              if (i == 2) throw tomo::Error("inline boom");
                            }),
               tomo::Error);
}

TEST(Executor, WidthDefaultsToOneAndScopesNest) {
  EXPECT_EQ(parallel_width(), 1u);
  {
    const ScopedWidth outer(3);
    EXPECT_EQ(parallel_width(), 3u);
    {
      const ScopedWidth inner(0);
      EXPECT_EQ(parallel_width(), resolve_jobs(0));
    }
    EXPECT_EQ(parallel_width(), 3u);
  }
  EXPECT_EQ(parallel_width(), 1u);
}

TEST(Executor, WidthOneCallCreatesNoThread) {
  const std::size_t before = process_threads();
  const ScopedWidth width(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  parallel_for(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_EQ(process_threads(), before);
}

TEST(Executor, BackToBackCallsReuseOnePool) {
  // ThreadSanitizer starts a helper thread with the process's first
  // thread; start (and join) one here so `before` already counts it.
  std::thread([] {}).join();
  const std::size_t before = process_threads();
  const ScopedWidth width(4);
  for (int call = 0; call < 1000; ++call) {
    std::mutex mutex;
    std::set<std::thread::id> participants;
    std::vector<int> hits(16, 0);
    parallel_for(hits.size(), [&](std::size_t i) {
      hits[i] += 1;
      const std::lock_guard<std::mutex> lock(mutex);
      participants.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 16)
        << "call " << call;
    ASSERT_LE(participants.size(), 4u) << "call " << call;
  }
  // The caller plus three workers: at most three threads ever started.
  EXPECT_LE(process_threads() - before, 3u);
}

TEST(Executor, NestedCallsThreeDeepRunInlineAndCoverEveryIndex) {
  const ScopedWidth width(2);
  constexpr std::size_t kFan = 5;
  std::vector<int> hits(kFan * kFan * kFan, 0);
  std::atomic<int> escaped{0};
  parallel_for(kFan, [&](std::size_t i) {
    const std::thread::id outer = std::this_thread::get_id();
    EXPECT_EQ(parallel_width(), 1u);
    parallel_for(kFan, [&](std::size_t j) {
      parallel_for(kFan, [&](std::size_t k) {
        if (std::this_thread::get_id() != outer) escaped.fetch_add(1);
        hits[(i * kFan + j) * kFan + k] += 1;
      });
    });
  });
  EXPECT_EQ(escaped.load(), 0) << "nested items left their outer thread";
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// A call that does not fan out (one item) leaves the width to the layers
// below it: a single trial's simulator and harvest still get the cores.
TEST(Executor, SingleItemCallLeavesTheWidthToNestedCalls) {
  const ScopedWidth width(3);
  std::size_t nested_width = 0;
  parallel_for(1, [&](std::size_t) { nested_width = parallel_width(); });
  EXPECT_EQ(nested_width, 3u);
}

TEST(Executor, ScopedWidthIsRestoredAfterABodyThrows) {
  {
    const ScopedWidth width(4);
    EXPECT_THROW(parallel_for(8,
                              [](std::size_t i) {
                                const ScopedWidth inner(7);
                                if (i == 5) throw tomo::Error("boom");
                              }),
                 tomo::Error);
    // The caller ran items too; it is out of the body again.
    EXPECT_EQ(parallel_width(), 4u);
  }
  EXPECT_EQ(parallel_width(), 1u);
  EXPECT_THROW(
      {
        const ScopedWidth width(6);
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
  EXPECT_EQ(parallel_width(), 1u);
}

// Two threads issuing calls at once both complete: whichever finds the
// pool held runs its items on itself.
TEST(Executor, ConcurrentCallersEachCoverTheirIndices) {
  const auto caller = [](std::vector<int>& hits) {
    const ScopedWidth width(3);
    for (int call = 0; call < 200; ++call) {
      parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    }
  };
  std::vector<int> a(10, 0), b(10, 0);
  std::thread other(caller, std::ref(b));
  caller(a);
  other.join();
  for (const int h : a) EXPECT_EQ(h, 200);
  for (const int h : b) EXPECT_EQ(h, 200);
}

}  // namespace
