// Tests for the fuzz harness itself (src/testing/): the case generator is
// seed-deterministic, replays round-trip bit-exactly, the differential
// matrix passes on a clean engine, the oracle feasibility check gates the
// right configs, and a deliberately injected bug is caught, shrunk, and
// reproduced from its replay file.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "testing/differential.h"
#include "testing/fuzz_case.h"
#include "testing/replay.h"
#include "testing/shrinker.h"

namespace star::testing {
namespace {

bool HasCheck(const CaseOutcome& o, const std::string& check) {
  for (const auto& v : o.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(FuzzCaseTest, GeneratorIsSeedDeterministic) {
  const FuzzProfile p = SmokeProfile();
  const FuzzCase a = MakeFuzzCase(p, 42);
  const FuzzCase b = MakeFuzzCase(p, 42);
  // Replay text covers every result-affecting field bit-exactly, so text
  // equality is the strongest determinism statement available.
  EXPECT_EQ(SerializeReplay(a), SerializeReplay(b));
}

TEST(FuzzCaseTest, DifferentSeedsGiveDifferentCases) {
  const FuzzProfile p = SmokeProfile();
  EXPECT_NE(SerializeReplay(MakeFuzzCase(p, 1)),
            SerializeReplay(MakeFuzzCase(p, 2)));
}

// Smoke seeds 918517 and 918584 draw a graph query whose seed node's only
// neighbour is itself, through a self-loop. Case generation used to spin
// on them; they now give a one-node star, which runs clean.
TEST(FuzzCaseTest, SelfLoopSeedNodeMakesAOneNodeStar) {
  for (const uint64_t seed : {918517u, 918584u}) {
    const FuzzCase c = MakeFuzzCase(SmokeProfile(), seed);
    EXPECT_EQ(c.query.node_count(), 1) << seed;
    EXPECT_EQ(c.query.edge_count(), 0) << seed;
    const CaseOutcome o = RunDifferentialCase(c, RunnerOptions());
    EXPECT_TRUE(o.ok()) << c.Describe() << "\n  " << o.Summary();
    EXPECT_GT(o.cells_run, 0u) << seed;
  }
}

TEST(FuzzCaseTest, CopyCaseIsFaithful) {
  const FuzzCase c = MakeFuzzCase(TieHeavyProfile(), 7);
  EXPECT_EQ(SerializeReplay(CopyCase(c)), SerializeReplay(c));
}

TEST(ReplayTest, RoundTripsBitExactly) {
  for (const char* profile :
       {"smoke", "ties", "deadline", "vocabulary", "joins"}) {
    FuzzCase c = MakeFuzzCase(ProfileByName(profile), 11);
    c.inject = BugInjection::kWarmTopListScores;
    const std::string text = SerializeReplay(c);
    FuzzCase parsed;
    std::string err;
    ASSERT_TRUE(ParseReplay(text, &parsed, &err)) << err;
    EXPECT_EQ(SerializeReplay(parsed), text) << "profile " << profile;
  }
}

TEST(ReplayTest, RejectsMalformedInputWithLineNumbers) {
  FuzzCase out;
  std::string err;
  EXPECT_FALSE(ParseReplay("not-a-replay\n", &out, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;

  // A qe line referencing nodes that do not exist.
  const std::string bad_edge =
      "star-replay v1\nqn 0 _ foo\nqe 0 5 rel\n";
  EXPECT_FALSE(ParseReplay(bad_edge, &out, &err));
  EXPECT_NE(err.find("qe"), std::string::npos) << err;

  // Graph section never closed.
  std::string open_graph = SerializeReplay(MakeFuzzCase(SmokeProfile(), 3));
  open_graph.resize(open_graph.rfind("endgraph"));
  EXPECT_FALSE(ParseReplay(open_graph, &out, &err));
  EXPECT_NE(err.find("endgraph"), std::string::npos) << err;
}

TEST(ReplayTest, DegradePinRoundTripsAndDefaultsStayCompatible) {
  FuzzCase c = MakeFuzzCase(SmokeProfile(), 11);
  c.degrade = 2;
  const std::string text = SerializeReplay(c);
  EXPECT_NE(text.find("\ndegrade 2\n"), std::string::npos);
  FuzzCase parsed;
  std::string err;
  ASSERT_TRUE(ParseReplay(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.degrade, 2);
  EXPECT_EQ(SerializeReplay(parsed), text);

  // Unpinned cases (full ladder sweep) keep the pre-degrade wire format,
  // so their files remain loadable by strict parsers from before the
  // field.
  c.degrade = 0;
  EXPECT_EQ(SerializeReplay(c).find("degrade"), std::string::npos);
}

TEST(DifferentialTest, CertificateCellsRunAndAPinnedLevelNarrowsTheSweep) {
  const FuzzCase c = MakeFuzzCase(SmokeProfile(), 9001);
  const RunnerOptions all;
  RunnerOptions no_certs;
  no_certs.run_certificates = false;

  const CaseOutcome with_cells = RunDifferentialCase(c, all);
  const CaseOutcome without = RunDifferentialCase(c, no_certs);
  EXPECT_TRUE(with_cells.ok()) << c.Describe() << "\n  "
                               << with_cells.Summary();
  EXPECT_GT(with_cells.cells_run, without.cells_run);

  // Pinning a ladder level runs one degraded certificate cell instead of
  // three — the same narrowing the shrinker exploits for cert* checks.
  FuzzCase pinned = CopyCase(c);
  pinned.degrade = 3;
  const CaseOutcome pin = RunDifferentialCase(pinned, all);
  EXPECT_TRUE(pin.ok()) << pin.Summary();
  EXPECT_LT(pin.cells_run, with_cells.cells_run);
  EXPECT_GT(pin.cells_run, without.cells_run);
}

TEST(OracleCheckTest, FlagsUntypedWildcardWithCutoff) {
  query::QueryGraph q;
  q.AddNode("alpha");
  const int w = q.AddWildcardNode("");  // untyped wildcard
  q.AddEdge(0, w);

  scoring::MatchConfig cfg;
  EXPECT_EQ(baseline::BruteForceOracleCheck(q, cfg), "");

  cfg.max_candidates = 4;
  EXPECT_NE(baseline::BruteForceOracleCheck(q, cfg), "");
  cfg.max_candidates = 0;

  cfg.wildcard_node_score = 0.1;
  cfg.node_threshold = 0.5;
  EXPECT_NE(baseline::BruteForceOracleCheck(q, cfg), "");
}

TEST(OracleCheckTest, TypedQueriesAreAlwaysModelable) {
  query::QueryGraph q;
  q.AddNode("alpha");
  const int w = q.AddWildcardNode("Film");  // typed wildcard
  q.AddEdge(0, w);

  scoring::MatchConfig cfg;
  cfg.max_candidates = 4;
  cfg.wildcard_node_score = 0.1;
  cfg.node_threshold = 0.5;
  EXPECT_EQ(baseline::BruteForceOracleCheck(q, cfg), "");
}

TEST(DifferentialTest, SmallCleanBatchHasNoViolations) {
  const FuzzProfile p = SmokeProfile();
  const RunnerOptions opts;
  for (uint64_t seed = 9000; seed < 9020; ++seed) {
    const FuzzCase c = MakeFuzzCase(p, seed);
    const CaseOutcome o = RunDifferentialCase(c, opts);
    EXPECT_TRUE(o.ok()) << c.Describe() << "\n  " << o.Summary();
  }
}

TEST(DifferentialTest, InjectedBugIsCaughtShrunkAndReplayed) {
  // Seed 404 is a known catcher (the fuzz-smoke canary uses it too).
  FuzzCase c = MakeFuzzCase(SmokeProfile(), 404);
  c.inject = BugInjection::kWarmTopListScores;

  const RunnerOptions opts;
  const CaseOutcome o = RunDifferentialCase(c, opts);
  ASSERT_TRUE(HasCheck(o, "reuse-warm")) << o.Summary();

  ShrinkOptions so;
  const ShrinkResult r = ShrinkCase(c, "reuse-warm", so);
  EXPECT_GT(r.reductions, 0u);
  EXPECT_LE(r.minimal.graph.node_count(), c.graph.node_count());
  ASSERT_TRUE(HasCheck(RunDifferentialCase(r.minimal, opts), "reuse-warm"));

  // The written replay must reproduce the catch by itself.
  const std::string path = ::testing::TempDir() + "injected_bug.replay";
  ASSERT_TRUE(WriteReplayFile(path, r.minimal));
  FuzzCase reloaded;
  std::string err;
  ASSERT_TRUE(LoadReplayFile(path, &reloaded, &err)) << err;
  EXPECT_TRUE(HasCheck(RunDifferentialCase(reloaded, opts), "reuse-warm"));
}

TEST(ShrinkerTest, IsDeterministic) {
  FuzzCase c = MakeFuzzCase(SmokeProfile(), 404);
  c.inject = BugInjection::kWarmCandidateScores;
  ShrinkOptions so;
  const ShrinkResult a = ShrinkCase(c, "reuse-warm", so);
  const ShrinkResult b = ShrinkCase(c, "reuse-warm", so);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.reductions, b.reductions);
  EXPECT_EQ(SerializeReplay(a.minimal), SerializeReplay(b.minimal));
}

}  // namespace
}  // namespace star::testing
