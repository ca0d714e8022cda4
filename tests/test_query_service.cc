// Tests for the query serving layer (src/serve/): admission control,
// deadline handling, the normalized-query result cache, and — the central
// contract — that serving a query through QueryService returns results
// bitwise identical to calling StarFramework::TopK directly.

#include "serve/query_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "test_helpers.h"

namespace star::serve {
namespace {

using star::testing::MovieGraph;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

query::QueryGraph BradAwardQuery() {
  query::QueryGraph q;
  const int brad = q.AddNode("Brad");
  const int maker = q.AddWildcardNode("Director");
  const int award = q.AddNode("Award");
  q.AddEdge(brad, maker);
  q.AddEdge(maker, award);
  return q;
}

/// The same query built with the opposite node insertion order — must hit
/// the same cache entry as BradAwardQuery().
query::QueryGraph BradAwardQueryReordered() {
  query::QueryGraph q;
  const int award = q.AddNode("Award");
  const int maker = q.AddWildcardNode("Director");
  const int brad = q.AddNode("Brad");
  q.AddEdge(maker, award);
  q.AddEdge(brad, maker);
  return q;
}

core::StarOptions TestStarOptions(int d = 2) {
  core::StarOptions o;
  o.match = TestConfig(d);
  return o;
}

/// Bitwise match-list equality: same size, same mapping node ids, same
/// score doubles (no epsilon — the cache stores exactly what TopK made).
void ExpectIdenticalMatches(const std::vector<core::GraphMatch>& a,
                            const std::vector<core::GraphMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "match " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "match " << i;
  }
}

/// Shared warm state for a service, mirroring what a server process owns.
struct ServeFixture {
  graph::KnowledgeGraph graph;
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index;

  explicit ServeFixture(graph::KnowledgeGraph g)
      : graph(std::move(g)), index(graph) {}

  std::vector<core::GraphMatch> Direct(const query::QueryGraph& q, size_t k,
                                       const core::StarOptions& o) {
    core::StarFramework fw(graph, ensemble, &index, o);
    return fw.TopK(q, k);
  }
};

TEST(QueryServiceTest, ServedResultMatchesDirectFramework) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  const auto expected = fx.Direct(BradAwardQuery(), 5, so.star);
  ASSERT_FALSE(expected.empty());

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  const QueryResponse resp = service.Execute(std::move(req));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_FALSE(resp.partial);
  ExpectIdenticalMatches(resp.matches, expected);
}

TEST(QueryServiceTest, CacheHitIsBitwiseIdenticalToFreshRun) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 4;
  const QueryResponse first = service.Execute(req);
  const QueryResponse second = service.Execute(req);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectIdenticalMatches(second.matches, first.matches);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.5);
}

TEST(QueryServiceTest, CacheKeyIsInsertionOrderInsensitive) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  EXPECT_EQ(service.CacheKey(BradAwardQuery(), 5),
            service.CacheKey(BradAwardQueryReordered(), 5));

  QueryRequest a;
  a.query = BradAwardQuery();
  a.k = 5;
  QueryRequest b;
  b.query = BradAwardQueryReordered();
  b.k = 5;
  const QueryResponse first = service.Execute(std::move(a));
  const QueryResponse second = service.Execute(std::move(b));
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit) << "textually identical query parsed in a "
                                   "different order must hit the cache";
  // The hit must be expressed in the CALLER's node order, not the
  // inserter's: B's node u is A's node 2-u (Award/Director/Brad vs
  // Brad/Director/Award), so the cached mappings come back reversed while
  // the scores pass through bitwise.
  ASSERT_EQ(second.matches.size(), first.matches.size());
  for (size_t i = 0; i < first.matches.size(); ++i) {
    ASSERT_EQ(second.matches[i].mapping.size(), 3u);
    EXPECT_EQ(second.matches[i].score, first.matches[i].score) << "match " << i;
    for (int u = 0; u < 3; ++u) {
      EXPECT_EQ(second.matches[i].mapping[size_t(u)],
                first.matches[i].mapping[size_t(2 - u)])
          << "match " << i << " node " << u;
    }
  }
  // And it must be bitwise identical to actually running the reordered
  // query — the service-level contract callers observe.
  ExpectIdenticalMatches(second.matches,
                         fx.Direct(BradAwardQueryReordered(), 5, so.star));
}

// A typo'd label with fuzzy_labels set runs as its correction: the rewrite
// is reported, the answer is bitwise the corrected query's, the request
// keys the corrected query's cache entry, and the stats count it once.
TEST(QueryServiceTest, FuzzyLabelsRunAndCacheTheCorrectedQuery) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  query::QueryGraph typo;
  const int brad = typo.AddNode("Bradd Pitt");  // "bradd" has no posting
  typo.AddEdge(brad, typo.AddWildcardNode("Film"));
  query::QueryGraph corrected = typo;
  ASSERT_EQ(RewriteFuzzyLabels(fx.index, &corrected).size(), 1u);
  const auto expected = fx.Direct(corrected, 5, so.star);
  ASSERT_FALSE(expected.empty());

  QueryRequest req;
  req.query = typo;
  req.k = 5;
  req.fuzzy_labels = true;
  const QueryResponse fuzzy = service.Execute(std::move(req));
  ASSERT_TRUE(fuzzy.status.ok()) << fuzzy.status.ToString();
  ASSERT_EQ(fuzzy.rewrites.size(), 1u);
  EXPECT_EQ(fuzzy.rewrites[0].node, brad);
  EXPECT_EQ(fuzzy.rewrites[0].from, "Bradd Pitt");
  EXPECT_EQ(fuzzy.rewrites[0].to, corrected.node(brad).label);
  EXPECT_FALSE(fuzzy.cache_hit);
  ExpectIdenticalMatches(fuzzy.matches, expected);

  QueryRequest twin;
  twin.query = corrected;
  twin.k = 5;
  const QueryResponse verbatim = service.Execute(std::move(twin));
  ASSERT_TRUE(verbatim.status.ok()) << verbatim.status.ToString();
  EXPECT_TRUE(verbatim.cache_hit)
      << "the corrected twin must hit the fuzzy request's entry";
  EXPECT_TRUE(verbatim.rewrites.empty());
  ExpectIdenticalMatches(verbatim.matches, expected);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fuzzy_rewritten, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(QueryServiceTest, DifferentKOrCacheOptOutMisses) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 3;
  ASSERT_TRUE(service.Execute(req).status.ok());

  QueryRequest other_k = req;
  other_k.k = 4;
  EXPECT_FALSE(service.Execute(std::move(other_k)).cache_hit);

  QueryRequest opt_out = req;
  opt_out.use_cache = false;
  EXPECT_FALSE(service.Execute(std::move(opt_out)).cache_hit);

  EXPECT_TRUE(service.Execute(req).cache_hit);
}

TEST(QueryServiceTest, InvalidateCacheForcesRecompute) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  const QueryResponse first = service.Execute(req);
  ASSERT_TRUE(service.Execute(req).cache_hit);

  service.InvalidateCache();
  const QueryResponse recomputed = service.Execute(req);
  EXPECT_FALSE(recomputed.cache_hit) << "generation bump must clear entries";
  ExpectIdenticalMatches(recomputed.matches, first.matches);
  EXPECT_TRUE(service.Execute(req).cache_hit) << "recomputed result re-cached";
}

TEST(QueryServiceTest, StaleGenerationResultNeverLandsInCache) {
  ResultCache cache(8);
  const uint64_t gen = cache.generation();
  cache.Invalidate();
  cache.Insert("key", {core::GraphMatch{}}, {0}, gen);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  cache.Insert("key", {core::GraphMatch{}}, {0}, cache.generation());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryServiceTest, LruEvictsOldestEntry) {
  ResultCache cache(2);
  const uint64_t gen = cache.generation();
  cache.Insert("a", {}, {}, gen);
  cache.Insert("b", {}, {}, gen);
  ASSERT_TRUE(cache.Lookup("a") != nullptr);  // refresh a
  cache.Insert("c", {}, {}, gen);             // evicts b
  EXPECT_TRUE(cache.Lookup("a") != nullptr);
  EXPECT_TRUE(cache.Lookup("b") == nullptr);
  EXPECT_TRUE(cache.Lookup("c") != nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryServiceTest, ExpiredDeadlineReturnsPromptlyWithoutGraphWork) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  req.deadline = Deadline::Expired();
  const QueryResponse resp = service.Execute(std::move(req));
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.partial);
  EXPECT_TRUE(resp.matches.empty());
  // The request was answered before any candidate retrieval: the engine
  // never ran, so its counters are all zero (no full graph scan).
  EXPECT_EQ(resp.framework.search.pivot_candidates, 0u);
  EXPECT_EQ(resp.framework.search.nodes_expanded, 0u);
  EXPECT_EQ(resp.framework.num_stars, 0u);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(QueryServiceTest, DeadlineExpiringInQueueSkipsExecution) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  // Every execution slot first waits out the deadline below.
  so.before_execute = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 5;
  req.deadline = Deadline::AfterMillis(5);
  const QueryResponse resp = service.Execute(std::move(req));
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.framework.search.pivot_candidates, 0u);
}

TEST(QueryServiceTest, PartialResultsNeverEnterTheCache) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest expired;
  expired.query = BradAwardQuery();
  expired.k = 5;
  expired.deadline = Deadline::Expired();
  ASSERT_EQ(service.Execute(std::move(expired)).status.code(),
            StatusCode::kDeadlineExceeded);

  QueryRequest fresh;
  fresh.query = BradAwardQuery();
  fresh.k = 5;
  const QueryResponse resp = service.Execute(std::move(fresh));
  ASSERT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.cache_hit) << "an expired request must not have cached";
  ASSERT_FALSE(resp.matches.empty());
}

TEST(QueryServiceTest, InvalidRequestsAreRejectedSynchronously) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  QueryRequest empty;
  empty.k = 5;
  EXPECT_EQ(service.Execute(std::move(empty)).status.code(),
            StatusCode::kInvalidArgument);

  QueryRequest zero_k;
  zero_k.query = BradAwardQuery();
  zero_k.k = 0;
  EXPECT_EQ(service.Execute(std::move(zero_k)).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().rejected_invalid, 2u);
}

// Shapes outside QueryGraph::Validate(). Stars and rank joins assume a
// connected simple query: an edgeless pair would leave a node unmapped,
// parallel edges would score one node pair twice, and a self-loop would
// credit an edge the data node does not have.
TEST(QueryServiceTest, DegenerateShapesAreRejected) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  query::QueryGraph pair;
  const int brad = pair.AddNode("Brad");
  const int troy = pair.AddNode("Troy");
  query::QueryGraph edge = pair;
  edge.AddEdge(brad, troy);
  ASSERT_FALSE(fx.Direct(edge, 5, so.star).empty());

  query::QueryGraph parallel = edge;
  parallel.AddEdge(troy, brad);
  query::QueryGraph loop = edge;
  loop.AddEdge(troy, troy);

  for (const query::QueryGraph* q : {&pair, &parallel, &loop}) {
    EXPECT_TRUE(fx.Direct(*q, 5, so.star).empty()) << q->ToString();
    QueryRequest req;
    req.query = *q;
    req.k = 5;
    const QueryResponse resp = service.Execute(std::move(req));
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument)
        << q->ToString();
    EXPECT_TRUE(resp.matches.empty()) << q->ToString();
  }
  EXPECT_EQ(service.stats().rejected_invalid, 3u);
}

TEST(QueryServiceTest, SaturatedServiceRejectsWithOverloaded) {
  ServeFixture fx(MovieGraph());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServiceOptions so;
  so.star = TestStarOptions();
  so.max_inflight = 1;
  so.max_queue = 1;
  // The requests below are identical; without this they would coalesce
  // into one flight instead of exercising the admission limits.
  so.enable_coalescing = false;
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  std::future<QueryResponse> f1, f2, f3;
  {
    QueryService service(fx.graph, fx.ensemble, &fx.index, so);
    QueryRequest req;
    req.query = BradAwardQuery();
    req.k = 3;

    f1 = service.Submit(req);
    // Wait until the worker holds the only execution slot.
    while (entered.load() == 0) std::this_thread::yield();
    f2 = service.Submit(req);  // fills the one queue slot
    f3 = service.Submit(req);  // beyond capacity: rejected synchronously

    ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "overload rejection must not block on the running query";
    const QueryResponse rejected = f3.get();
    EXPECT_EQ(rejected.status.code(), StatusCode::kOverloaded);
    EXPECT_TRUE(rejected.matches.empty());
    EXPECT_EQ(service.stats().rejected_overload, 1u);

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    // Service destructor drains f1/f2 before the fixture goes away.
  }
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

TEST(QueryServiceTest, ShutdownRejectsNewWorkAndDrainsAdmitted) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  QueryRequest req;
  req.query = BradAwardQuery();
  req.k = 3;

  std::future<QueryResponse> admitted;
  {
    QueryService service(fx.graph, fx.ensemble, &fx.index, so);
    admitted = service.Submit(req);
  }  // destructor drains
  ASSERT_EQ(admitted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(admitted.get().status.ok());
}

// ---------------------------------------------------------------------------
// Concurrency suite: concurrent clients against direct execution. The TSan
// CI filter selects it (*QueryService*).
// ---------------------------------------------------------------------------

class QueryServiceParallelDeterminismTest
    : public ::testing::TestWithParam<bool> {};

TEST_P(QueryServiceParallelDeterminismTest,
       ConcurrentClientsMatchDirectExecution) {
  const bool cache_on = GetParam();
  ServeFixture fx(SmallRandomGraph(11, 30, 60));
  ServiceOptions so;
  so.star = TestStarOptions(1);
  so.max_inflight = 4;
  so.cache_capacity = cache_on ? 64 : 0;
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  // A small mixed workload; expected answers computed serially up front.
  query::WorkloadGenerator wg(fx.graph, 29);
  std::vector<query::QueryGraph> queries;
  std::vector<std::vector<core::GraphMatch>> expected;
  const size_t k = 4;
  for (int i = 0; i < 5; ++i) {
    query::QueryGraph q = wg.RandomStarQuery(3, query::WorkloadOptions{});
    expected.push_back(fx.Direct(q, k, so.star));
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
        QueryRequest req;
        req.query = queries[qi];
        req.k = k;
        const QueryResponse resp = service.Execute(std::move(req));
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
      << "served results must be bitwise identical to direct TopK";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.completed, stats.submitted);
  if (cache_on) {
    EXPECT_GT(stats.cache_hits, 0u);
  } else {
    EXPECT_EQ(stats.cache_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, QueryServiceParallelDeterminismTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

TEST(QueryServiceParallelDeterminismTest, ConcurrentSubmitAndInvalidate) {
  ServeFixture fx(MovieGraph());
  ServiceOptions so;
  so.star = TestStarOptions();
  so.max_inflight = 4;
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  const auto expected = fx.Direct(BradAwardQuery(), 5, so.star);

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
        QueryRequest req;
        req.query = BradAwardQuery();
        req.k = 5;
        const QueryResponse resp = service.Execute(std::move(req));
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
      << "results must stay exact under concurrent invalidation";
}

}  // namespace
}  // namespace star::serve
