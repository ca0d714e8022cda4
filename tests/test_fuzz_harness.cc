// Tests for the fuzz harness itself (src/testing/): the case generator is
// seed-deterministic, replays round-trip bit-exactly, the differential
// matrix passes on a clean engine, the oracle runs on every config, the
// fn-oracle check flags wrong candidate lists, and a
// deliberately injected bug is caught, shrunk, and reproduced from its
// replay file.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/label_index.h"
#include "scoring/query_scorer.h"
#include "test_helpers.h"
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

/// A path query label - wildcard - label over a path x - m - y of a small
/// random graph, so the wildcard sits at the pivot of one decomposition
/// and is a leaf in others. The wildcard takes m's type, or none (a `?`
/// node) unless `typed`.
FuzzCase WildcardPathCase(bool typed, const scoring::MatchConfig& cfg) {
  FuzzCase c;
  c.graph = SmallRandomGraph(/*seed=*/17, /*nodes=*/24, /*edges=*/48);
  graph::NodeId m = 0;
  while (c.graph.Neighbors(m).size() < 2) ++m;
  const graph::NodeId x = c.graph.Neighbors(m)[0].node;
  graph::NodeId y = x;
  for (const auto& nb : c.graph.Neighbors(m)) {
    if (nb.node != x && nb.node != m) y = nb.node;
  }
  const int a = c.query.AddNode(std::string(c.graph.NodeLabel(x)));
  const int w = c.query.AddWildcardNode(
      typed ? std::string(c.graph.TypeName(c.graph.NodeType(m))) : "");
  const int b = c.query.AddNode(std::string(c.graph.NodeLabel(y)));
  c.query.AddEdge(a, w);
  c.query.AddEdge(w, b);
  c.config = cfg;
  return c;
}

// Every MatchConfig is modelable: a `?` node matches every node wherever
// it sits, so the oracle, baseline and certificate cells run on untyped
// wildcards under a candidate cutoff or a sub-threshold wildcard score,
// and agree with the engines.
TEST(OracleCheckTest, OracleRunsOnUntypedWildcardWithCutoff) {
  scoring::MatchConfig cfg = TestConfig();
  for (int variant = 0; variant < 3; ++variant) {
    cfg.max_candidates = variant == 1 ? 4 : 0;
    cfg.wildcard_node_score = variant == 2 ? 0.1 : 1.0;
    cfg.node_threshold = variant == 2 ? 0.5 : 0.25;
    const FuzzCase c = WildcardPathCase(/*typed=*/false, cfg);
    const CaseOutcome o = RunDifferentialCase(c, RunnerOptions());
    EXPECT_TRUE(o.oracle_ran) << "variant " << variant;
    EXPECT_TRUE(o.ok()) << "variant " << variant << ": " << o.Summary();
  }
}

TEST(OracleCheckTest, TypedQueriesAreAlwaysModelable) {
  scoring::MatchConfig cfg = TestConfig();
  cfg.max_candidates = 4;
  for (const double wildcard_score : {1.0, 0.1}) {
    cfg.wildcard_node_score = wildcard_score;
    const FuzzCase c = WildcardPathCase(/*typed=*/true, cfg);
    const CaseOutcome o = RunDifferentialCase(c, RunnerOptions());
    EXPECT_TRUE(o.oracle_ran) << "wildcard score " << wildcard_score;
    EXPECT_TRUE(o.ok()) << "wildcard score " << wildcard_score << ": "
                        << o.Summary();
  }
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

// The fn-oracle check must flag a candidate list that differs from the
// one rebuilt from Score() in a single id or a single score bit. The
// wrong lists are seeded into the scorer's memo (at d = 2, where a list
// can be seeded), so Candidates() returns them as if the kernel had
// computed them.
TEST(FnOracleTest, FlagsADroppedCandidateAndAOneUlpScore) {
  const graph::KnowledgeGraph g = MovieGraph();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int u = q.AddNode("Brad Pitt", "Actor");
  const int w = q.AddWildcardNode("");
  q.AddEdge(u, w, "actedIn");
  const scoring::MatchConfig cfg = TestConfig(/*d=*/2);
  std::vector<scoring::ScoredCandidate> right;
  {
    const scoring::QueryScorer scorer(g, q, ensemble, cfg, &index);
    CaseOutcome clean;
    CheckFnOracle(scorer, ensemble, "clean", &clean);
    EXPECT_TRUE(clean.ok()) << clean.Summary();
    const scoring::CandidateList& list = scorer.Candidates(u);
    right.assign(list.begin(), list.end());
  }
  ASSERT_GE(right.size(), 2u);

  std::vector<scoring::ScoredCandidate> dropped = right;
  dropped.erase(dropped.begin() + 1);
  std::vector<scoring::ScoredCandidate> off_by_ulp = right;
  off_by_ulp.back().score = std::nextafter(off_by_ulp.back().score, 2.0);
  for (const auto* wrong : {&dropped, &off_by_ulp}) {
    const scoring::QueryScorer scorer(g, q, ensemble, cfg, &index);
    scorer.SeedCandidates(u, *wrong);
    CaseOutcome out;
    CheckFnOracle(scorer, ensemble, "seeded", &out);
    ASSERT_EQ(out.violations.size(), 1u);
    EXPECT_EQ(out.violations[0].check, "fn-oracle");
    EXPECT_EQ(out.violations[0].cell, "seeded");
  }
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
