// Integration tests driving the tomo_cli binary end to end: generate a
// topology, check it, simulate congestion, infer, merge, localize — the
// full workflow a user runs, through the real executable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef TOMO_CLI_PATH
#error "TOMO_CLI_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code;
  std::string output;
};

/// Runs tomo_cli with `args`; `env` (shell assignments) prefixes the
/// child's command line.
CommandResult run_cli(const std::string& args, const std::string& env = "") {
  const std::string command =
      env + std::string(TOMO_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe)) {
    output += buffer;
  }
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

// Unique per test process: ctest -j runs every discovered case as its own
// process, and each one re-runs SetUpTestSuite — shared fixed names made
// concurrent processes clobber each other's files (the old CliWorkflow
// parallel flake).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

class CliWorkflow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new std::string(temp_path("cli_topo.txt"));
    obs_ = new std::string(temp_path("cli_obs.txt"));
    const CommandResult gen = run_cli(
        "gen --kind planetlab --size 60 --endpoints 6 --seed 3 --out " +
        *topo_);
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
    const CommandResult sim = run_cli(
        "simulate --snapshots 300 --packets 500 --topology " + *topo_ +
        " --out " + *obs_);
    ASSERT_EQ(sim.exit_code, 0) << sim.output;
  }
  static void TearDownTestSuite() {
    std::remove(topo_->c_str());
    std::remove(obs_->c_str());
    delete topo_;
    delete obs_;
  }
  static std::string* topo_;
  static std::string* obs_;
};

std::string* CliWorkflow::topo_ = nullptr;
std::string* CliWorkflow::obs_ = nullptr;

TEST_F(CliWorkflow, GenWritesParsableTopology) {
  std::ifstream is(*topo_);
  ASSERT_TRUE(is.good());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "tomo-topology v1");
}

TEST_F(CliWorkflow, CheckReportsIdentifiability) {
  const CommandResult r = run_cli("check --topology " + *topo_);
  // Exit code 0 (holds) or 1 (violated) — both are valid reports.
  EXPECT_LE(r.exit_code, 1);
  EXPECT_NE(r.output.find("correlation sets"), std::string::npos);
}

TEST_F(CliWorkflow, InferPrintsPerLinkTable) {
  const CommandResult r = run_cli("infer --topology " + *topo_ +
                                  " --obs " + *obs_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("congestion_prob"), std::string::npos);
  EXPECT_NE(r.output.find("equations:"), std::string::npos);
}

TEST_F(CliWorkflow, InferCsvAndBaselineModes) {
  const CommandResult csv = run_cli("infer --csv --topology " + *topo_ +
                                    " --obs " + *obs_);
  EXPECT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.output.find("link,src,dst,congestion_prob"),
            std::string::npos);
  const CommandResult ind = run_cli("infer --independent --topology " +
                                    *topo_ + " --obs " + *obs_);
  EXPECT_EQ(ind.exit_code, 0) << ind.output;
}

TEST_F(CliWorkflow, InferWithBootstrapIntervals) {
  const CommandResult r = run_cli("infer --bootstrap 10 --topology " +
                                  *topo_ + " --obs " + *obs_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ci90_lo"), std::string::npos);
}

// The reference engines are test oracles, not modes: the retired --mode
// values and the --bootstrap-mode flag are rejected like any unknown input.
TEST_F(CliWorkflow, SimulateRejectsRetiredOracleModes) {
  const std::string out = temp_path("cli_retired_mode.txt");
  for (const std::string mode : {"batched-ref", "per-packet"}) {
    const CommandResult r =
        run_cli("simulate --snapshots 10 --packets 10 --mode " + mode +
                " --topology " + *topo_ + " --out " + out);
    EXPECT_EQ(r.exit_code, 1) << mode << ": " << r.output;
    EXPECT_NE(r.output.find("batched|binomial|exact"), std::string::npos)
        << r.output;
  }
  std::remove(out.c_str());
}

TEST_F(CliWorkflow, InferRejectsBootstrapModeFlag) {
  const CommandResult r =
      run_cli("infer --bootstrap 10 --bootstrap-mode batched --topology " +
              *topo_ + " --obs " + *obs_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos) << r.output;
}

TEST_F(CliWorkflow, MergeWritesTransformedTopology) {
  const std::string out = temp_path("cli_merged.txt");
  const CommandResult r = run_cli("merge --topology " + *topo_ +
                                  " --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  {
    std::ifstream is(out);
    EXPECT_TRUE(is.good());
  }
  std::remove(out.c_str());
}

TEST_F(CliWorkflow, LocalizeReportsLinks) {
  const CommandResult r = run_cli("localize --snapshot 5 --topology " +
                                  *topo_ + " --obs " + *obs_);
  EXPECT_LE(r.exit_code, 1);  // 1 = infeasible snapshot (noise), still ok
  EXPECT_NE(r.output.find("congested path"), std::string::npos);
}

// A dimension line too large to allocate must surface as a clean error
// (exit 1, "tomo_cli: std::bad_alloc"), not an uncaught std::bad_alloc
// (abort, 134). allocator_may_return_null lets an ASan build's operator
// new throw too, where the sanitizer runtime supports it; GCC 12's runtime
// still reports the failed allocation itself, also with exit code 1.
TEST_F(CliWorkflow, UnallocatableObservationFileFailsCleanly) {
  const std::string huge = temp_path("cli_huge_obs.txt");
  {
    std::ofstream os(huge);
    os << "tomo-observations v1\npaths 870 snapshots 99999999999\n";
  }
  const CommandResult r = run_cli(
      "infer --topology " + *topo_ + " --obs " + huge,
      "ASAN_OPTIONS=${ASAN_OPTIONS:+$ASAN_OPTIONS:}"
      "allocator_may_return_null=1 ");
  std::remove(huge.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
#ifndef __SANITIZE_ADDRESS__
  EXPECT_NE(r.output.find("tomo_cli: std::bad_alloc"), std::string::npos)
      << r.output;
#endif
}

TEST(CliErrors, UnknownSubcommandFails) {
  const CommandResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliErrors, MissingFileIsReportedCleanly) {
  const CommandResult r = run_cli("infer --topology /nonexistent.txt");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("tomo_cli:"), std::string::npos);
}

TEST(CliErrors, HelpExitsZero) {
  const CommandResult r = run_cli("gen --help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--kind"), std::string::npos);
}

}  // namespace
