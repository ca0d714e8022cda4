// Tests for cross-query computation reuse: canonical per-star signatures
// (query/query_canonical.h), the generation-counted StarCache
// (serve/star_cache.h), the framework wiring (StarOptions::reuse +
// CachedStarStream replay), and single-flight request coalescing in
// QueryService. The load-bearing property throughout: anything served warm
// — replayed star prefix, seeded candidate list, coalesced response — is
// BITWISE identical to cold execution.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "query/query_canonical.h"
#include "query/workload.h"
#include "serve/query_service.h"
#include "serve/star_cache.h"
#include "test_helpers.h"

namespace star {
namespace {

using core::GraphMatch;
using core::StarFramework;
using core::StarOptions;
using core::StarStrategy;
using query::CanonicalizeStar;
using query::CanonicalStar;
using query::QueryGraph;
using query::StarQuery;
using serve::StarCache;
using star::testing::MovieGraph;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

void ExpectIdentical(const std::vector<GraphMatch>& a,
                     const std::vector<GraphMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "match " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "match " << i;
  }
}

// ---------------------------------------------------------------------------
// Canonical star signatures
// ---------------------------------------------------------------------------

TEST(CanonicalStarTest, SignatureIsEdgeInsertionOrderInsensitive) {
  QueryGraph a;
  const int pa = a.AddWildcardNode("Film");
  const int brad_a = a.AddNode("Brad");
  const int award_a = a.AddNode("Award");
  const int e0a = a.AddEdge(pa, brad_a, "actedIn");
  const int e1a = a.AddEdge(pa, award_a, "won");

  QueryGraph b;  // same star, leaves and edges added in the other order
  const int award_b = b.AddNode("Award");
  const int pb = b.AddWildcardNode("Film");
  const int brad_b = b.AddNode("Brad");
  const int e1b = b.AddEdge(pb, award_b, "won");
  const int e0b = b.AddEdge(brad_b, pb, "actedIn");

  StarQuery sa{pa, {e0a, e1a}};
  StarQuery sb{pb, {e0b, e1b}};
  const CanonicalStar ca = CanonicalizeStar(a, sa);
  const CanonicalStar cb = CanonicalizeStar(b, sb);
  EXPECT_TRUE(ca.exact);
  EXPECT_TRUE(cb.exact);
  EXPECT_EQ(ca.signature, cb.signature);
  EXPECT_EQ(ca.hash, cb.hash);
}

TEST(CanonicalStarTest, SignatureSeparatesLabelsPredicatesAndWeights) {
  QueryGraph q;
  const int p = q.AddWildcardNode("Film");
  const int brad = q.AddNode("Brad");
  const int e = q.AddEdge(p, brad, "actedIn");
  const StarQuery star{p, {e}};
  const std::string base = CanonicalizeStar(q, star).signature;

  QueryGraph q2;  // different leaf label
  const int p2 = q2.AddWildcardNode("Film");
  const int leaf2 = q2.AddNode("Angelina");
  const int e2 = q2.AddEdge(p2, leaf2, "actedIn");
  EXPECT_NE(CanonicalizeStar(q2, StarQuery{p2, {e2}}).signature, base);

  QueryGraph q3;  // different predicate
  const int p3 = q3.AddWildcardNode("Film");
  const int leaf3 = q3.AddNode("Brad");
  const int e3 = q3.AddEdge(p3, leaf3, "directed");
  EXPECT_NE(CanonicalizeStar(q3, StarQuery{p3, {e3}}).signature, base);

  // α-scheme node weights are part of the identity: the same star under a
  // different weight split keys differently.
  std::vector<double> weights(q.node_count(), 1.0);
  weights[brad] = 0.5;
  EXPECT_NE(CanonicalizeStar(q, star, weights).signature, base);
  // All-1.0 weights encode exactly like the empty default.
  EXPECT_EQ(CanonicalizeStar(q, star,
                             std::vector<double>(q.node_count(), 1.0))
                .signature,
            base);
}

TEST(CanonicalStarTest, TiedEdgeRecordsAreMarkedInexact) {
  QueryGraph q;
  const int p = q.AddWildcardNode("Film");
  const int a = q.AddNode("Brad");
  const int b = q.AddNode("Brad");
  const int e0 = q.AddEdge(p, a, "actedIn");
  const int e1 = q.AddEdge(p, b, "actedIn");
  const CanonicalStar c = CanonicalizeStar(q, StarQuery{p, {e0, e1}});
  // Two indistinguishable leaves: the canonical edge order is ambiguous,
  // so the star must refuse exact status (and thus never be cached).
  EXPECT_FALSE(c.exact);
}

// ---------------------------------------------------------------------------
// StarCache unit behavior
// ---------------------------------------------------------------------------

std::vector<scoring::ScoredCandidate> SomeCandidates(int n) {
  std::vector<scoring::ScoredCandidate> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({static_cast<graph::NodeId>(i), 1.0 / (1 + i)});
  }
  return out;
}

TEST(StarCacheTest, CandidateSectionLruAndGeneration) {
  StarCache cache(2, 2);
  const uint64_t gen = cache.generation();
  cache.InsertCandidates("a", SomeCandidates(1), gen);
  cache.InsertCandidates("b", SomeCandidates(2), gen);
  ASSERT_NE(cache.LookupCandidates("a"), nullptr);  // refresh a
  cache.InsertCandidates("c", SomeCandidates(3), gen);  // evicts b
  EXPECT_NE(cache.LookupCandidates("a"), nullptr);
  EXPECT_EQ(cache.LookupCandidates("b"), nullptr);
  EXPECT_NE(cache.LookupCandidates("c"), nullptr);
  EXPECT_EQ(cache.stats().candidate_evictions, 1u);

  cache.Invalidate();
  EXPECT_EQ(cache.LookupCandidates("a"), nullptr)
      << "Invalidate must clear the candidate section";
  cache.InsertCandidates("d", SomeCandidates(1), gen);  // stale generation
  EXPECT_EQ(cache.LookupCandidates("d"), nullptr);
  EXPECT_GE(cache.stats().stale_drops, 1u);
}

TEST(StarCacheTest, TopListKeepsTheDeeperRecording) {
  StarCache cache(4, 4);
  const uint64_t gen = cache.generation();
  const auto make = [](int depth) {
    std::vector<core::StarMatch> ms(depth);
    std::vector<double> bs(depth + 1, 1.0);
    return std::pair(ms, bs);
  };

  auto [m2, b2] = make(2);
  cache.InsertStarTopList("s", m2, b2, false, gen);
  auto got = cache.LookupStarTopList("s");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->matches->size(), 2u);

  auto [m1, b1] = make(1);
  cache.InsertStarTopList("s", m1, b1, false, gen);
  got = cache.LookupStarTopList("s");
  EXPECT_EQ(got->matches->size(), 2u) << "shallower recording must not win";

  auto [m4, b4] = make(4);
  cache.InsertStarTopList("s", m4, b4, true, gen);
  got = cache.LookupStarTopList("s");
  EXPECT_EQ(got->matches->size(), 4u);
  EXPECT_TRUE(got->exhausted);

  // Equal depth, exhausted flag upgrades an open recording.
  auto [m3a, b3a] = make(3);
  cache.InsertStarTopList("t", m3a, b3a, false, gen);
  auto [m3b, b3b] = make(3);
  cache.InsertStarTopList("t", m3b, b3b, true, gen);
  EXPECT_TRUE(cache.LookupStarTopList("t")->exhausted);

  // Misaligned bounds are refused outright.
  std::vector<core::StarMatch> bad(2);
  cache.InsertStarTopList("u", bad, std::vector<double>(2, 0.0), false, gen);
  EXPECT_FALSE(cache.LookupStarTopList("u").has_value());
}

// ---------------------------------------------------------------------------
// Engine-level identity: reuse on/off, cold/warm, across strategies and
// single-/multi-star queries.
// ---------------------------------------------------------------------------

struct ReuseFixture {
  graph::KnowledgeGraph graph;
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index;

  explicit ReuseFixture(graph::KnowledgeGraph g)
      : graph(std::move(g)), index(graph) {}

  std::vector<GraphMatch> Run(const QueryGraph& q, size_t k,
                              const StarOptions& o,
                              core::FrameworkStats* stats = nullptr) {
    StarFramework fw(graph, ensemble, &index, o);
    auto out = fw.TopK(q, k);
    if (stats != nullptr) *stats = fw.last_stats();
    return out;
  }
};

/// Brad — ?Film — ?Director — Award: decomposes into >= 2 stars, so the
/// rank-join replay path is exercised alongside the single-star one.
QueryGraph PathQuery() {
  QueryGraph q;
  const int brad = q.AddNode("Brad");
  const int film = q.AddWildcardNode("Film");
  const int dir = q.AddWildcardNode("Director");
  const int award = q.AddNode("Award");
  q.AddEdge(brad, film, "actedIn");
  q.AddEdge(dir, film, "directed");
  q.AddEdge(dir, award, "won");
  return q;
}

QueryGraph StarOnlyQuery() {
  QueryGraph q;
  const int film = q.AddWildcardNode("Film");
  const int brad = q.AddNode("Brad");
  const int award = q.AddNode("Award");
  q.AddEdge(film, brad, "actedIn");
  q.AddEdge(film, award, "won");
  return q;
}

class StarReuseIdentityTest : public ::testing::TestWithParam<StarStrategy> {
};

TEST_P(StarReuseIdentityTest, WarmRunsAreBitwiseIdenticalToCold) {
  ReuseFixture fx(MovieGraph());
  const size_t k = 6;

  for (const int d : {1, 2}) {
    StarOptions base;
    base.match = TestConfig(d);
    base.strategy = GetParam();
    for (const QueryGraph& q : {StarOnlyQuery(), PathQuery()}) {
      const std::string cell = "d=" + std::to_string(d) +
                               (q.IsStar() ? " star" : " path");
      // At d <= 1 the stars of a multi-star query restrict each other's
      // candidate lists, so only a single star memoizes its stream, and no
      // node-level list is cached.
      const bool star_cached = q.IsStar() || d >= 2;
      const auto direct = fx.Run(q, k, base);

      StarCache cache(64, 64);
      StarOptions with_reuse = base;
      with_reuse.reuse = &cache;

      core::FrameworkStats cold_stats, warm_stats;
      const auto cold = fx.Run(q, k, with_reuse, &cold_stats);
      ExpectIdentical(cold, direct);
      EXPECT_EQ(cold_stats.star_cache_misses > 0, star_cached) << cell;
      EXPECT_EQ(cold_stats.star_cache_hits, 0u) << cell;
      EXPECT_EQ(cold_stats.candidate_lists_inserted > 0, d >= 2) << cell;

      const auto warm = fx.Run(q, k, with_reuse, &warm_stats);
      ExpectIdentical(warm, direct);
      EXPECT_EQ(warm_stats.star_cache_hits > 0, star_cached)
          << cell << ": a second run of the same query replays its stars";
      EXPECT_EQ(warm_stats.candidate_lists_seeded > 0, d >= 2) << cell;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StarReuseIdentityTest,
    ::testing::Values(StarStrategy::kStark, StarStrategy::kStard,
                      StarStrategy::kHybrid),
    [](const ::testing::TestParamInfo<StarStrategy>& info) {
      return std::string(info.param == StarStrategy::kStark   ? "Stark"
                         : info.param == StarStrategy::kStard ? "Stard"
                                                              : "Hybrid");
    });

// At d <= 1 the stars of a multi-star query restrict each other's
// candidate lists, so a star's stream is not a function of its signature:
// such a query neither probes nor commits the star cache, and no list is
// a function of its node's signature either, so none is published or
// seeded. At d = 2 the same query memoizes its stars and its lists.
TEST(StarReuseIdentityTest, MultiStarQueriesAtDOneLeaveTheStarCacheAlone) {
  ReuseFixture fx(MovieGraph());
  const QueryGraph q = PathQuery();
  for (const int d : {1, 2}) {
    StarCache cache(64, 64);
    StarOptions o;
    o.match = TestConfig(d);
    o.reuse = &cache;
    core::FrameworkStats cold, warm;
    const auto first = fx.Run(q, 6, o, &cold);
    const auto second = fx.Run(q, 6, o, &warm);
    ExpectIdentical(second, first);
    ASSERT_GE(cold.num_stars, 2u);
    const bool cached = d >= 2;
    EXPECT_EQ(cache.toplist_size() > 0, cached) << "d=" << d;
    EXPECT_EQ(cache.stats().toplist_insertions > 0, cached) << "d=" << d;
    EXPECT_EQ(cold.star_cache_misses + warm.star_cache_hits > 0, cached)
        << "d=" << d;
    EXPECT_EQ(cache.candidate_size() > 0, cached) << "d=" << d;
    EXPECT_EQ(warm.candidate_lists_seeded > 0, cached) << "d=" << d;
  }
}

// The candidate section holds node-level lists, a function of the node's
// signature. At d = 2 "Brad" next to Los Angeles keeps Brad Garrett, and a
// later query seeded from the cache sees him next to a film. At d = 1 the
// plan reduces that list to Brad Pitt, which is not a function of the
// signature, so nothing node-level is cached and the later query scores
// its own list.
TEST(StarReuseIdentityTest, CachedCandidateListsAreNodeLevel) {
  ReuseFixture fx(MovieGraph());
  QueryGraph born;
  const int born_brad = born.AddNode("Brad");
  born.AddEdge(born_brad, born.AddNode("Los Angeles"));
  QueryGraph acted;
  const int brad = acted.AddNode("Brad");
  acted.AddEdge(brad, acted.AddWildcardNode("Film"));
  for (const int d : {1, 2}) {
    StarOptions base;
    base.match = TestConfig(d);
    const auto direct = fx.Run(acted, 6, base);

    StarCache cache(64, 64);
    StarOptions with_reuse = base;
    with_reuse.reuse = &cache;
    fx.Run(born, 6, with_reuse);
    EXPECT_EQ(cache.candidate_size() > 0, d >= 2) << "d=" << d;
    core::FrameworkStats stats;
    const auto warm = fx.Run(acted, 6, with_reuse, &stats);
    EXPECT_EQ(stats.candidate_lists_seeded > 0, d >= 2) << "d=" << d;
    ExpectIdentical(warm, direct);
    bool garrett = false;
    for (const GraphMatch& m : warm) garrett |= m.mapping[brad] == 1;
    EXPECT_TRUE(garrett) << "d=" << d
                         << ": Brad Garrett (node 1) acted in Troy";
  }
}

// At d <= 1 an attached cache changes nothing before the star cache: the
// cold run is the uncached plan, with its pre-scoring filter, so it scores
// the same nodes and returns the same matches, and no node-level list is
// published. A multi-star query, which skips the star cache at d <= 1,
// scores them again when warm. At d = 2 the same queries still publish
// their lists and seed them when warm.
TEST(StarReuseIdentityTest, AtDOneACachedRunScoresLikeAnUncachedRun) {
  ReuseFixture fx(MovieGraph());
  for (const int d : {1, 2}) {
    for (const QueryGraph& q : {StarOnlyQuery(), PathQuery()}) {
      const std::string cell = "d=" + std::to_string(d) +
                               (q.IsStar() ? " star" : " path");
      StarOptions base;
      base.match = TestConfig(d);
      core::FrameworkStats direct_stats, cold_stats, warm_stats;
      const auto direct = fx.Run(q, 6, base, &direct_stats);

      StarCache cache(64, 64);
      StarOptions with_reuse = base;
      with_reuse.reuse = &cache;
      const auto cold = fx.Run(q, 6, with_reuse, &cold_stats);
      const auto warm = fx.Run(q, 6, with_reuse, &warm_stats);
      ExpectIdentical(cold, direct);
      ExpectIdentical(warm, direct);
      if (d <= 1) {
        EXPECT_EQ(cold_stats.retrieval.nodes_scored,
                  direct_stats.retrieval.nodes_scored)
            << cell;
        if (!q.IsStar()) {
          EXPECT_EQ(warm_stats.retrieval.nodes_scored,
                    direct_stats.retrieval.nodes_scored)
              << cell;
        }
        EXPECT_EQ(cache.candidate_size(), 0u) << cell;
        EXPECT_EQ(cold_stats.candidate_lists_inserted, 0u) << cell;
        EXPECT_EQ(warm_stats.candidate_lists_seeded, 0u) << cell;
      } else {
        EXPECT_GT(cold_stats.candidate_lists_inserted, 0u) << cell;
        EXPECT_GT(cache.candidate_size(), 0u) << cell;
        EXPECT_GT(warm_stats.candidate_lists_seeded, 0u) << cell;
      }
    }
  }
}

TEST(StarReuseIdentityTest, DeeperConsumersResumePastTheRecordedPrefix) {
  // Warm the cache with a SHALLOW run (k = 1), then ask for a deeper
  // answer: the stream must replay the prefix, fast-forward the engine,
  // and extend — still bitwise identical to a cold deep run.
  ReuseFixture fx(SmallRandomGraph(7, 30, 60));
  query::WorkloadGenerator wg(fx.graph, 17);
  const QueryGraph q = wg.RandomStarQuery(3, query::WorkloadOptions{});
  StarOptions base;
  base.match = TestConfig(1);

  const auto deep_direct = fx.Run(q, 8, base);

  StarCache cache(64, 64);
  StarOptions with_reuse = base;
  with_reuse.reuse = &cache;
  fx.Run(q, 1, with_reuse);

  core::FrameworkStats stats;
  const auto deep_warm = fx.Run(q, 8, with_reuse, &stats);
  ExpectIdentical(deep_warm, deep_direct);
  EXPECT_GT(stats.star_cache_hits, 0u);
}

TEST(StarReuseIdentityTest, ReorderedQueryHitsTheSameStarEntries) {
  ReuseFixture fx(MovieGraph());
  StarOptions base;
  base.match = TestConfig(1);
  StarCache cache(64, 64);
  base.reuse = &cache;

  QueryGraph a = StarOnlyQuery();  // nodes: film=0, brad=1, award=2
  QueryGraph b;  // same star, opposite insertion order
  const int award = b.AddNode("Award");
  const int film = b.AddWildcardNode("Film");
  const int brad = b.AddNode("Brad");
  b.AddEdge(film, award, "won");
  b.AddEdge(brad, film, "actedIn");

  const auto first = fx.Run(a, 5, base);
  core::FrameworkStats stats;
  const auto second = fx.Run(b, 5, base, &stats);
  EXPECT_GT(stats.star_cache_hits, 0u)
      << "canonicalization must make insertion order irrelevant";
  // The two queries number their nodes differently, so compare by role.
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].score, first[i].score) << "match " << i;
    EXPECT_EQ(second[i].mapping[film], first[i].mapping[0]) << "match " << i;
    EXPECT_EQ(second[i].mapping[brad], first[i].mapping[1]) << "match " << i;
    EXPECT_EQ(second[i].mapping[award], first[i].mapping[2]) << "match " << i;
  }
}

TEST(StarReuseIdentityTest, CancelledRunsNeverPopulateTheCache) {
  ReuseFixture fx(MovieGraph());
  StarCache cache(64, 64);
  StarOptions o;
  o.match = TestConfig(1);
  o.reuse = &cache;

  Cancellation expired((Deadline::Expired()));
  StarFramework fw(fx.graph, fx.ensemble, &fx.index, o);
  (void)fw.TopK(StarOnlyQuery(), 5, &expired);
  EXPECT_TRUE(fw.last_stats().cancelled);
  EXPECT_EQ(cache.candidate_size(), 0u);
  EXPECT_EQ(cache.toplist_size(), 0u);
  const serve::StarCacheStats s = cache.stats();
  EXPECT_EQ(s.candidate_insertions, 0u);
  EXPECT_EQ(s.toplist_insertions, 0u);
}

TEST(StarReuseIdentityTest, InvalidationForcesRecomputeWithIdenticalResults) {
  ReuseFixture fx(MovieGraph());
  StarCache cache(64, 64);
  StarOptions o;
  o.match = TestConfig(1);
  o.reuse = &cache;

  const auto first = fx.Run(StarOnlyQuery(), 5, o);
  cache.Invalidate();
  core::FrameworkStats stats;
  const auto second = fx.Run(StarOnlyQuery(), 5, o, &stats);
  EXPECT_EQ(stats.star_cache_hits, 0u) << "invalidation must clear entries";
  ExpectIdentical(second, first);
}

// ---------------------------------------------------------------------------
// Single-flight coalescing in QueryService
// ---------------------------------------------------------------------------

core::StarOptions ServeStarOptions() {
  core::StarOptions o;
  o.match = TestConfig(2);
  return o;
}

QueryGraph BradAwardQuery() {
  QueryGraph q;
  const int brad = q.AddNode("Brad");
  const int maker = q.AddWildcardNode("Director");
  const int award = q.AddNode("Award");
  q.AddEdge(brad, maker);
  q.AddEdge(maker, award);
  return q;
}

TEST(CoalescingTest, FollowersReceiveTheLeadersExactResult) {
  ReuseFixture fx(MovieGraph());
  const auto direct = fx.Run(BradAwardQuery(), 5, ServeStarOptions());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  serve::ServiceOptions so;
  so.star = ServeStarOptions();
  so.max_inflight = 1;
  so.cache_capacity = 0;  // no result cache: coalescing alone dedups
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  serve::QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  serve::QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  auto f1 = service.Submit(req);
  while (entered.load() == 0) std::this_thread::yield();
  // The leader is pinned inside before_execute: these MUST coalesce.
  auto f2 = service.Submit(req);
  auto f3 = service.Submit(req);
  EXPECT_EQ(service.stats().coalesced_followers, 2u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const serve::QueryResponse r1 = f1.get();
  const serve::QueryResponse r2 = f2.get();
  const serve::QueryResponse r3 = f3.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  ASSERT_TRUE(r3.status.ok());
  EXPECT_FALSE(r1.coalesced);
  EXPECT_TRUE(r2.coalesced);
  EXPECT_TRUE(r3.coalesced);
  ExpectIdentical(r1.matches, direct);
  ExpectIdentical(r2.matches, direct);
  ExpectIdentical(r3.matches, direct);
  EXPECT_EQ(entered.load(), 1) << "exactly one execution for three requests";
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(CoalescingTest, ExpiredFollowerIsAnsweredHonestlyAtDelivery) {
  ReuseFixture fx(MovieGraph());
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  serve::ServiceOptions so;
  so.star = ServeStarOptions();
  so.max_inflight = 1;
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  serve::QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  serve::QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  auto leader = service.Submit(req);
  while (entered.load() == 0) std::this_thread::yield();

  serve::QueryRequest doomed = req;
  doomed.deadline = Deadline::Expired();
  auto follower = service.Submit(std::move(doomed));
  ASSERT_EQ(service.stats().coalesced_followers, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  ASSERT_TRUE(leader.get().status.ok());
  const serve::QueryResponse fr = follower.get();
  // Its own deadline expired while riding along: delivering the leader's
  // complete answer would claim latency the follower never got.
  EXPECT_EQ(fr.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(fr.partial);
  EXPECT_TRUE(fr.matches.empty());
}

TEST(CoalescingTest, LeaderExpiryPromotesALiveFollower) {
  ReuseFixture fx(MovieGraph());
  const auto direct = fx.Run(BradAwardQuery(), 5, ServeStarOptions());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  serve::ServiceOptions so;
  so.star = ServeStarOptions();
  so.max_inflight = 1;
  so.cache_capacity = 0;
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  serve::QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  // The leader's deadline is already expired: it clears before_execute,
  // then fails its entry checkpoint. The follower (no deadline) must be
  // promoted and re-run on the same worker rather than inheriting the
  // leader's failure.
  serve::QueryRequest doomed;
  doomed.query = BradAwardQuery();
  doomed.k = 5;
  doomed.deadline = Deadline::Expired();
  auto leader = service.Submit(std::move(doomed));
  while (entered.load() == 0) std::this_thread::yield();

  serve::QueryRequest live;
  live.query = BradAwardQuery();
  live.k = 5;
  auto follower = service.Submit(std::move(live));
  ASSERT_EQ(service.stats().coalesced_followers, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;  // sticky: the promoted follower passes straight through
  }
  cv.notify_all();

  EXPECT_EQ(leader.get().status.code(), StatusCode::kDeadlineExceeded);
  const serve::QueryResponse fr = follower.get();
  ASSERT_TRUE(fr.status.ok()) << fr.status.message();
  EXPECT_FALSE(fr.coalesced) << "a promoted follower ran its own execution";
  ExpectIdentical(fr.matches, direct);
  EXPECT_EQ(service.stats().coalesce_promotions, 1u);
  EXPECT_EQ(entered.load(), 2) << "leader entered once, promoted follower once";
}

// ---------------------------------------------------------------------------
// Concurrency suite: concurrent clients through the service's star cache
// and coalescing. The TSan CI filter selects it (*StarReuse*).
// ---------------------------------------------------------------------------

TEST(StarReuseConcurrencyTest, TemplateSkewedClientsStayExact) {
  ReuseFixture fx(SmallRandomGraph(11, 30, 60));
  serve::ServiceOptions so;
  so.star = ServeStarOptions();
  so.star.match = TestConfig(1);
  so.max_inflight = 4;
  so.cache_capacity = 0;  // isolate the star cache + coalescing layers
  so.star_cache_capacity = 128;
  serve::QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  query::WorkloadGenerator wg(fx.graph, 29);
  std::vector<QueryGraph> queries;
  std::vector<std::vector<GraphMatch>> expected;
  const size_t k = 4;
  for (int i = 0; i < 4; ++i) {
    QueryGraph q = wg.RandomStarQuery(3, query::WorkloadOptions{});
    expected.push_back(fx.Run(q, k, so.star));
    queries.push_back(std::move(q));
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t qi = static_cast<size_t>(c + r) % queries.size();
        serve::QueryRequest req;
        req.query = queries[qi];
        req.k = k;
        const serve::QueryResponse resp = service.Execute(std::move(req));
        if (!resp.status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& want = expected[qi];
        bool same = resp.matches.size() == want.size();
        for (size_t i = 0; same && i < want.size(); ++i) {
          same = resp.matches[i].mapping == want[i].mapping &&
                 resp.matches[i].score == want[i].score;
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "warm star-cache / coalesced results must be bitwise exact";
  const serve::StarCacheStats cs = service.star_cache_stats();
  EXPECT_GT(cs.toplist_hits + cs.candidate_hits, 0u)
      << "the skewed workload must actually exercise reuse";
}

TEST(StarReuseConcurrencyTest, ConcurrentInvalidationStaysExact) {
  ReuseFixture fx(MovieGraph());
  serve::ServiceOptions so;
  so.star = ServeStarOptions();
  so.max_inflight = 4;
  serve::QueryService service(fx.graph, fx.ensemble, &fx.index, so);
  const auto expected = fx.Run(BradAwardQuery(), 5, so.star);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      service.InvalidateCache();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < 10; ++r) {
        serve::QueryRequest req;
        req.query = BradAwardQuery();
        req.k = 5;
        const serve::QueryResponse resp = service.Execute(std::move(req));
        if (!resp.status.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        bool same = resp.matches.size() == expected.size();
        for (size_t i = 0; same && i < expected.size(); ++i) {
          same = resp.matches[i].mapping == expected[i].mapping &&
                 resp.matches[i].score == expected[i].score;
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  invalidator.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "star-cache generations must keep results exact under invalidation";
}

}  // namespace
}  // namespace star
