// Tests for graceful degradation (src/serve/degrade.*, query_rewrite.*):
// the shedding ladder's level choice and knob application, the certified
// quality statement BuildCertificate derives from a finished run, the
// deterministic sampling predicate, typo-tolerant label rewriting, and the
// service-level kDeadlineExceeded contract (ordered prefix with ties, each
// response carrying a sound certificate).

#include "serve/degrade.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scoring/query_scorer.h"
#include "serve/query_rewrite.h"
#include "serve/query_service.h"
#include "test_helpers.h"

namespace star::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using star::testing::MovieGraph;
using star::testing::TestConfig;

// ---------------------------------------------------------------------------
// ChooseDegradationLevel.
// ---------------------------------------------------------------------------

TEST(DegradeLevelTest, DisabledPolicyNeverDegrades) {
  DegradePolicy p;  // enable = false
  EXPECT_EQ(ChooseDegradationLevel(p, 64, 64), 0);
  EXPECT_EQ(ChooseDegradationLevel(p, 0, 64), 0);
}

TEST(DegradeLevelTest, LevelsEngageAtTheConfiguredOccupancies) {
  DegradePolicy p;
  p.enable = true;
  EXPECT_EQ(ChooseDegradationLevel(p, 0, 100), 0);
  EXPECT_EQ(ChooseDegradationLevel(p, 49, 100), 0);
  EXPECT_EQ(ChooseDegradationLevel(p, 50, 100), 1);
  EXPECT_EQ(ChooseDegradationLevel(p, 74, 100), 1);
  EXPECT_EQ(ChooseDegradationLevel(p, 75, 100), 2);
  EXPECT_EQ(ChooseDegradationLevel(p, 89, 100), 2);
  EXPECT_EQ(ChooseDegradationLevel(p, 90, 100), 3);
  EXPECT_EQ(ChooseDegradationLevel(p, 100, 100), 3);
}

TEST(DegradeLevelTest, MonotoneInQueueDepthAndSafeOnZeroCapacity) {
  DegradePolicy p;
  p.enable = true;
  int prev = 0;
  for (size_t depth = 0; depth <= 64; ++depth) {
    const int level = ChooseDegradationLevel(p, depth, 64);
    EXPECT_GE(level, prev) << "depth " << depth;
    prev = level;
  }
  EXPECT_EQ(ChooseDegradationLevel(p, 10, 0), 0);
}

// ---------------------------------------------------------------------------
// ApplyDegradation.
// ---------------------------------------------------------------------------

TEST(ApplyDegradationTest, LevelZeroIsANoOp) {
  DegradePolicy p;
  core::StarOptions star;
  star.match = TestConfig(2);
  const core::StarOptions before = star;
  ApplyDegradation(p, 0, &star);
  EXPECT_EQ(star.match.max_candidates, before.match.max_candidates);
  EXPECT_EQ(star.match.sample_rate, before.match.sample_rate);
  EXPECT_EQ(star.match.d, before.match.d);
}

TEST(ApplyDegradationTest, LevelsComposeCumulatively) {
  DegradePolicy p;
  p.l1_max_candidates = 8;
  p.sample_seed = 99;

  core::StarOptions l1;
  l1.match = TestConfig(2);
  ApplyDegradation(p, 1, &l1);
  EXPECT_EQ(l1.match.max_candidates, 8u);
  EXPECT_EQ(l1.match.sample_rate, 1.0);
  EXPECT_EQ(l1.match.d, 2);

  core::StarOptions l2;
  l2.match = TestConfig(2);
  ApplyDegradation(p, 2, &l2);
  EXPECT_EQ(l2.match.max_candidates, 8u);
  EXPECT_EQ(l2.match.sample_rate, kL2SampleRate);
  EXPECT_EQ(l2.match.sample_seed, 99u);
  EXPECT_EQ(l2.match.d, 2);

  core::StarOptions l3;
  l3.match = TestConfig(2);
  ApplyDegradation(p, 3, &l3);
  EXPECT_EQ(l3.match.max_candidates, 8u);
  EXPECT_EQ(l3.match.sample_rate, kL2SampleRate);
  EXPECT_EQ(l3.match.d, 1);
}

TEST(ApplyDegradationTest, OnlyTightensNeverLoosens) {
  DegradePolicy p;
  p.l1_max_candidates = 100;

  core::StarOptions star;
  star.match = TestConfig(1);
  star.match.max_candidates = 10;   // already tighter than the policy
  star.match.sample_rate = kL2SampleRate / 2;  // already sparser
  ApplyDegradation(p, 3, &star);
  EXPECT_EQ(star.match.max_candidates, 10u);
  EXPECT_EQ(star.match.sample_rate, kL2SampleRate / 2);
  EXPECT_EQ(star.match.d, 1);
}

// ---------------------------------------------------------------------------
// QueryScorer::SampleKeep (the level-2 retrieval-pool predicate).
// ---------------------------------------------------------------------------

TEST(SampleKeepTest, DeterministicAndSeedSensitive) {
  int kept = 0;
  int diff = 0;
  for (graph::NodeId v = 0; v < 4096; ++v) {
    const bool a = scoring::QueryScorer::SampleKeep(7, v, 0.5);
    EXPECT_EQ(a, scoring::QueryScorer::SampleKeep(7, v, 0.5)) << v;
    if (a) ++kept;
    if (a != scoring::QueryScorer::SampleKeep(8, v, 0.5)) ++diff;
  }
  // The keep fraction tracks the rate and the predicate actually depends
  // on the seed (loose bounds: 4096 fair coin flips).
  EXPECT_GT(kept, 4096 / 2 - 300);
  EXPECT_LT(kept, 4096 / 2 + 300);
  EXPECT_GT(diff, 0);
}

TEST(SampleKeepTest, BoundaryRates) {
  for (graph::NodeId v = 0; v < 256; ++v) {
    EXPECT_TRUE(scoring::QueryScorer::SampleKeep(3, v, 1.0));
    EXPECT_FALSE(scoring::QueryScorer::SampleKeep(3, v, 0.0));
  }
}

// ---------------------------------------------------------------------------
// BuildCertificate. Stats are hand-built so every branch is reachable
// without staging a particular engine execution.
// ---------------------------------------------------------------------------

/// Star query: center "a" with two leaves. IsStar() holds, so degraded
/// certificates may claim a non-empty guaranteed prefix.
query::QueryGraph StarQuery() {
  query::QueryGraph q;
  const int a = q.AddNode("a");
  q.AddEdge(a, q.AddNode("b"));
  q.AddEdge(a, q.AddNode("c"));
  return q;
}

core::StarOptions Opts(int d = 1, size_t max_candidates = 0) {
  core::StarOptions o;
  o.match = TestConfig(d);
  o.match.max_candidates = max_candidates;
  return o;
}

core::NodeCandidateInfo ComputedList(double top, double cut,
                                     bool cut_applied) {
  core::NodeCandidateInfo info;
  info.computed = true;
  info.top_score = top;
  info.cut_score = cut;
  info.cut_applied = cut_applied;
  return info;
}

std::vector<core::GraphMatch> Matches(std::initializer_list<double> scores) {
  std::vector<core::GraphMatch> out;
  for (const double s : scores) {
    core::GraphMatch m;
    m.score = s;
    out.push_back(m);
  }
  return out;
}

TEST(BuildCertificateTest, LevelZeroCompleteRunIsExact) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  const auto matches = Matches({4.0, 3.0});
  const auto cert =
      BuildCertificate(q, Opts(), Opts(), 0, stats, matches);
  EXPECT_EQ(cert.degradation_level, 0);
  EXPECT_EQ(cert.guaranteed_prefix, 2u);
  EXPECT_EQ(cert.score_bound, -kInf);
  EXPECT_TRUE(cert.exact);
}

TEST(BuildCertificateTest, LevelZeroFiniteResidualBoundsRankKPlusOne) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = 2.5;  // live pipeline threshold at the stop
  const auto cert =
      BuildCertificate(q, Opts(), Opts(), 0, stats, Matches({4.0, 3.0}));
  EXPECT_EQ(cert.guaranteed_prefix, 2u);
  EXPECT_EQ(cert.score_bound, 2.5);
  // A complete (uncancelled) run IS the exact top-k; the finite residual
  // only says unreturned matches exist and caps what rank k+1 can score.
  EXPECT_TRUE(cert.exact);
}

TEST(BuildCertificateTest, CancelledRunIsNeverExact) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.cancelled = true;
  const auto cert =
      BuildCertificate(q, Opts(), Opts(), 0, stats, Matches({4.0}));
  EXPECT_FALSE(cert.exact);
  EXPECT_EQ(cert.guaranteed_prefix, 1u);
}

TEST(BuildCertificateTest, DegradedRunWithoutDigestsClaimsNothing) {
  const auto q = StarQuery();
  core::FrameworkStats stats;  // node_candidates empty: run never scored
  const auto cert =
      BuildCertificate(q, Opts(), Opts(1, 4), 1, stats, {});
  EXPECT_EQ(cert.degradation_level, 1);
  EXPECT_EQ(cert.guaranteed_prefix, 0u);
  EXPECT_EQ(cert.score_bound, kInf);
  EXPECT_FALSE(cert.exact);
}

TEST(BuildCertificateTest, UnbittenKnobsKeepLevelZeroSemantics) {
  // The tightened cutoff never filled any list: the effective search
  // space IS the nominal one, so the certificate falls back to the
  // engine's own (complete-run) statement.
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.node_candidates = {ComputedList(0.9, 0.4, false),
                           ComputedList(0.8, 0.8, false),
                           ComputedList(0.7, 0.3, false)};
  const auto cert = BuildCertificate(q, Opts(), Opts(1, 4), 1, stats,
                                     Matches({2.0, 1.5}));
  EXPECT_EQ(cert.guaranteed_prefix, 2u);
  EXPECT_EQ(cert.score_bound, -kInf);
  EXPECT_TRUE(cert.exact);
}

TEST(BuildCertificateTest, TightenedCutoffBoundsDroppedMatches) {
  const auto q = StarQuery();  // 3 nodes, 2 edges
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  // Node 0's list hit the cutoff (cut boundary 0.4); the others did not.
  stats.node_candidates = {ComputedList(1.0, 0.4, true),
                           ComputedList(0.8, 0.8, false),
                           ComputedList(0.6, 0.3, false)};
  const auto matches = Matches({4.2, 3.0, 1.0});
  const auto cert =
      BuildCertificate(q, Opts(), Opts(1, 4), 1, stats, matches);

  // Any nominal match missing from the degraded space maps node 0 to a
  // dropped candidate: <= 0.4 there, <= the kept tops elsewhere, plus the
  // two edges' unit caps.
  const double expected = 0.4 + 0.8 + 0.6 + 2.0;
  EXPECT_GE(cert.score_bound, expected);
  EXPECT_LE(cert.score_bound, expected + 1e-6) << "slack should be tiny";
  // 4.2 > bound and strictly descending => guaranteed; 3.0 < bound stops
  // the run there, and the bound then dominates the unguaranteed tail.
  EXPECT_EQ(cert.guaranteed_prefix, 1u);
  EXPECT_FALSE(cert.exact);
}

TEST(BuildCertificateTest, TrailingTieIsNeverGuaranteed) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.node_candidates = {ComputedList(1.0, 0.1, true),
                           ComputedList(0.2, 0.2, false),
                           ComputedList(0.2, 0.2, false)};
  // Both returned scores clear the drop bound but tie with each other:
  // the nominal run could legally order them either way, so neither may
  // be certified.
  const auto cert = BuildCertificate(q, Opts(), Opts(1, 4), 1, stats,
                                     Matches({4.0, 4.0}));
  EXPECT_EQ(cert.guaranteed_prefix, 0u);
  EXPECT_GE(cert.score_bound, 4.0);
}

TEST(BuildCertificateTest, SampledNodePoisonsAllCaps) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  auto sampled = ComputedList(0.5, 0.2, false);
  sampled.sampled = true;
  stats.node_candidates = {sampled, ComputedList(0.8, 0.8, false),
                           ComputedList(0.6, 0.3, false)};
  core::StarOptions effective = Opts(1, 4);
  effective.match.sample_rate = 0.5;
  const auto cert = BuildCertificate(q, Opts(), effective, 2, stats,
                                     Matches({4.0, 3.9}));
  // Sampling drops pool nodes score-blind: the missing nominal best may
  // have scored a perfect 1.0 at the sampled node.
  EXPECT_GE(cert.score_bound, 1.0 + 0.8 + 0.6 + 2.0);
}

TEST(BuildCertificateTest, WildcardUnderTightenedCutIsADropSource) {
  // Regression: the engine truncates wildcard universes under a candidate
  // cutoff too (all F_N tie at wildcard_node_score, the id-ascending head
  // survives). A certificate that ignored this called degraded runs exact
  // while the cutoff had silently dropped the true best match.
  query::QueryGraph q;
  const int a = q.AddNode("a");
  q.AddEdge(a, q.AddWildcardNode(""));  // untyped: no list digest at all
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.node_candidates.resize(2);
  stats.node_candidates[0] = ComputedList(0.9, 0.9, false);
  stats.node_candidates[1].wildcard = true;  // computed stays false

  const auto cert = BuildCertificate(q, Opts(), Opts(1, 4), 1, stats,
                                     Matches({2.8}));
  EXPECT_FALSE(cert.exact);
  EXPECT_GE(cert.score_bound, 0.9 + 1.0 + 1.0)
      << "a dropped wildcard candidate can still realize the full score";
}

TEST(BuildCertificateTest, ReducedDCertifiesOnlyTheGlobalCap) {
  const auto q = StarQuery();
  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.node_candidates = {ComputedList(0.9, 0.4, false),
                           ComputedList(0.8, 0.8, false),
                           ComputedList(0.7, 0.3, false)};
  core::StarOptions nominal = Opts(2);
  core::StarOptions effective = Opts(1, 4);
  const auto cert = BuildCertificate(q, nominal, effective, 3, stats,
                                     Matches({4.0}));
  // d-reduction hides whole matches without touching any candidate list,
  // so no per-node drop argument applies and nothing can be guaranteed.
  EXPECT_EQ(cert.guaranteed_prefix, 0u);
  EXPECT_GE(cert.score_bound, 0.9 + 0.8 + 0.7 + 2.0);
  EXPECT_LT(cert.score_bound, kInf);
}

TEST(BuildCertificateTest, NonStarQueryNeverClaimsAPrefix) {
  // A 4-node path decomposes into stars; the degraded decomposition may
  // differ from the nominal one, so bitwise prefix equality is unprovable.
  query::QueryGraph q;
  const int a = q.AddNode("a");
  const int b = q.AddNode("b");
  const int c = q.AddNode("c");
  const int d = q.AddNode("d");
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  q.AddEdge(c, d);
  ASSERT_FALSE(q.IsStar());

  core::FrameworkStats stats;
  stats.residual_bound = -kInf;
  stats.node_candidates.assign(4, ComputedList(0.9, 0.4, true));
  const auto cert = BuildCertificate(q, Opts(), Opts(1, 4), 1, stats,
                                     Matches({5.0}));
  EXPECT_EQ(cert.guaranteed_prefix, 0u);
  EXPECT_LT(cert.score_bound, kInf);
}

// ---------------------------------------------------------------------------
// Typo-tolerant label rewriting.
// ---------------------------------------------------------------------------

TEST(FuzzyRewriteTest, CorrectsUnknownTokensAndReportsThem) {
  const auto g = MovieGraph();
  graph::LabelIndex index(g);

  query::QueryGraph q;
  const int n = q.AddNode("Bradd Pitt");  // "bradd" has no posting
  q.AddEdge(n, q.AddWildcardNode("Film"));

  const auto rewrites = RewriteFuzzyLabels(index, &q);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].node, n);
  EXPECT_EQ(rewrites[0].from, "Bradd Pitt");
  EXPECT_EQ(rewrites[0].to, q.node(n).label);
  EXPECT_NE(q.node(n).label.find("brad"), std::string::npos)
      << "corrected to: " << q.node(n).label;
  EXPECT_NE(q.node(n).label.find("pitt"), std::string::npos);
}

TEST(FuzzyRewriteTest, KnownLabelsPassThroughUnchanged) {
  const auto g = MovieGraph();
  graph::LabelIndex index(g);
  query::QueryGraph q;
  q.AddNode("brad pitt");  // already in index normal form
  EXPECT_TRUE(RewriteFuzzyLabels(index, &q).empty());
  EXPECT_EQ(q.node(0).label, "brad pitt");
}

TEST(FuzzyRewriteTest, HopelessTokensStayAsSubmitted) {
  const auto g = MovieGraph();
  graph::LabelIndex index(g);
  query::QueryGraph q;
  q.AddNode("zzqqxxyyww");  // shares no trigram with any graph token
  EXPECT_TRUE(RewriteFuzzyLabels(index, &q).empty());
}

TEST(FuzzyRewriteTest, WildcardNodesAreNeverTouched) {
  const auto g = MovieGraph();
  graph::LabelIndex index(g);
  query::QueryGraph q;
  q.AddWildcardNode("Film");
  EXPECT_TRUE(RewriteFuzzyLabels(index, &q).empty());
}

// ---------------------------------------------------------------------------
// Service-level deadline contract: a kDeadlineExceeded response is a
// bitwise ordered prefix of the exact answer — including through exact
// score ties — and its certificate bound dominates every dropped match.
// ---------------------------------------------------------------------------

/// Six bitwise-identical star subgraphs: every ("Star Alpha" -> "Planet
/// Beta") match scores exactly the same, so the top-k is one big tie
/// group and any truncation point lands inside it.
graph::KnowledgeGraph TwinGraph() {
  graph::KnowledgeGraph::Builder b;
  for (int i = 0; i < 6; ++i) {
    const auto star = b.AddNode("Star Alpha", "Body");
    const auto planet = b.AddNode("Planet Beta", "Body");
    b.AddEdge(star, planet, "orbits");
  }
  return std::move(b).Build();
}

query::QueryGraph TwinQuery() {
  query::QueryGraph q;
  const int star = q.AddNode("Star Alpha");
  q.AddEdge(star, q.AddNode("Planet Beta"));
  return q;
}

bool IsBitwisePrefix(const std::vector<core::GraphMatch>& prefix,
                     const std::vector<core::GraphMatch>& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].mapping != full[i].mapping ||
        prefix[i].score != full[i].score) {
      return false;
    }
  }
  return true;
}

TEST(DeadlineContractTest, TruncatedResponseIsACertifiedOrderedPrefix) {
  const auto g = TwinGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);

  ServiceOptions so;
  so.star.match = TestConfig(1);
  QueryService service(g, ensemble, &index, so);

  QueryRequest ref;
  ref.query = TwinQuery();
  ref.k = 4;
  const QueryResponse full = service.Execute(ref);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.matches.size(), 4u);
  // The fixture delivers what it promises: a tie group at the boundary.
  EXPECT_EQ(full.matches[0].score, full.matches[3].score);
  EXPECT_TRUE(full.certificate.exact);
  EXPECT_EQ(full.certificate.guaranteed_prefix, 4u);

  // Sweep deadlines from instantly-expired to comfortable. Wherever the
  // expiry lands — pre-admission, in queue, mid-run, after completion —
  // the response must be a bitwise prefix with a sound certificate.
  for (const double ms : {0.0, 0.01, 0.05, 0.2, 1.0, 50.0}) {
    QueryRequest req;
    req.query = TwinQuery();
    req.k = 4;
    req.use_cache = false;  // force fresh execution every iteration
    req.deadline = ms == 0.0 ? Deadline::Expired() : Deadline::AfterMillis(ms);
    const QueryResponse resp = service.Execute(std::move(req));
    const std::string ctx = "ms=" + std::to_string(ms);
    if (resp.status.ok()) {
      EXPECT_TRUE(IsBitwisePrefix(resp.matches, full.matches)) << ctx;
      EXPECT_EQ(resp.matches.size(), 4u) << ctx;
      continue;
    }
    ASSERT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded) << ctx;
    EXPECT_TRUE(resp.partial) << ctx;
    EXPECT_TRUE(IsBitwisePrefix(resp.matches, full.matches)) << ctx;
    // Certificate soundness: the guaranteed prefix cannot exceed what was
    // returned, and every match it does not cover — in particular the
    // first dropped one — scores at most the certified bound.
    EXPECT_LE(resp.certificate.guaranteed_prefix, resp.matches.size()) << ctx;
    EXPECT_FALSE(resp.certificate.exact) << ctx;
    if (resp.certificate.guaranteed_prefix < full.matches.size()) {
      EXPECT_GE(resp.certificate.score_bound,
                full.matches[resp.certificate.guaranteed_prefix].score - 1e-9)
          << ctx;
    }
  }
}

}  // namespace
}  // namespace star::serve
