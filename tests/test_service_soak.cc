// Concurrency soak for the query serving layer: several client threads
// hammer a small QueryService (tight admission limits so the queue and
// overload paths are exercised) while a churn thread concurrently
// invalidates the caches, and a slice of requests carries near-zero
// deadlines. Run under TSan via the `tsan` ctest label.
//
// Invariants checked on every single response:
//  - the future resolves (no lost wakeups — a bounded wait catches hangs);
//  - status is one of Ok / DeadlineExceeded / Overloaded;
//  - an Ok response is bitwise identical to a direct StarFramework run of
//    the same template, regardless of cache state, coalescing, or churn;
//  - a DeadlineExceeded response is partial and a bitwise prefix of it.
//
// Half the templates are reordered equivalents (permuted node/edge
// insertion order, flipped edge endpoints) of the other half, so they
// share cache keys and coalescing flights with their base template. A
// response may therefore be served from EITHER variant's execution; it
// must be bitwise identical (in the CALLER's node order) to that
// variant's direct run — i.e. to the template's own direct result or to
// the remap of its pair's. (Scores are node-order invariant, so the score
// sequence is pinned either way; mappings may legitimately differ between
// the two expected lists where scores tie.) This is the replay that used
// to be restricted to verbatim templates before the serve cache learned
// to remap reordered-equivalent hits.

#include "serve/query_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "query/query_canonical.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::serve {
namespace {

using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

/// Rebuilds q with node and edge insertion order permuted and edge
/// endpoints randomly flipped — semantically the identical query (mirrors
/// the differential harness's meta-permutation).
query::QueryGraph PermuteQuery(const query::QueryGraph& q, std::mt19937& rng) {
  const int n = q.node_count();
  std::vector<int> perm(n);  // perm[old] = new index
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<int> inv(n);
  for (int i = 0; i < n; ++i) inv[perm[i]] = i;
  query::QueryGraph nq;
  for (int ni = 0; ni < n; ++ni) {
    const auto& node = q.node(inv[ni]);
    if (node.wildcard) {
      nq.AddWildcardNode(node.type_name);
    } else {
      nq.AddNode(node.label, node.type_name);
    }
  }
  std::vector<int> eorder(q.edge_count());
  std::iota(eorder.begin(), eorder.end(), 0);
  std::shuffle(eorder.begin(), eorder.end(), rng);
  for (const int e : eorder) {
    const auto& qe = q.edge(e);
    int u = perm[qe.u];
    int v = perm[qe.v];
    if (rng() % 2 == 0) std::swap(u, v);
    nq.AddEdge(u, v, qe.wildcard_relation ? "" : qe.relation);
  }
  return nq;
}

/// Re-expresses `matches` (in `from`'s node order) in `to`'s node order by
/// routing each slot through the shared canonical rank space — the same
/// transform the serve cache applies to reordered-equivalent hits.
std::vector<core::GraphMatch> RemapThroughRanks(
    const std::vector<core::GraphMatch>& matches, const query::QueryGraph& from,
    const query::QueryGraph& to) {
  const std::vector<int> from_rank = query::CanonicalizeQuery(from).node_rank;
  const std::vector<int> to_rank = query::CanonicalizeQuery(to).node_rank;
  const size_t n = from_rank.size();
  std::vector<core::GraphMatch> out = matches;
  std::vector<graph::NodeId> canon(n);
  for (core::GraphMatch& m : out) {
    const std::vector<graph::NodeId> src = m.mapping;
    for (size_t u = 0; u < n; ++u) canon[size_t(from_rank[u])] = src[u];
    for (size_t u = 0; u < n; ++u) m.mapping[u] = canon[size_t(to_rank[u])];
  }
  return out;
}

struct SoakFixture {
  graph::KnowledgeGraph graph;
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index;
  std::vector<query::QueryGraph> templates;
  std::vector<size_t> ks;
  std::vector<std::vector<core::GraphMatch>> direct;
  /// direct[pair(t)] remapped into template t's node order: what a
  /// response for t looks like when served from the pair's execution.
  std::vector<std::vector<core::GraphMatch>> alt;
  /// Number of base templates; templates[base_count + t] is a reordered
  /// equivalent of templates[t] with the same k (so the pair shares a
  /// cache key and coalescing flights).
  size_t base_count = 0;

  size_t pair(size_t t) const { return (t + base_count) % templates.size(); }

  SoakFixture(const core::StarOptions& star)
      : graph(SmallRandomGraph(909, 300, 700)), index(graph) {
    query::WorkloadOptions wo;
    query::WorkloadGenerator wg(graph, 5150);
    templates.push_back(wg.RandomStarQuery(3, wo));
    templates.push_back(wg.RandomStarQuery(4, wo));
    templates.push_back(wg.RandomPathQuery(3, wo));
    templates.push_back(wg.RandomGraphQuery(4, 4, wo));
    ks = {3, 5, 7, 4};
    base_count = templates.size();
    std::mt19937 rng(4242);
    for (size_t t = 0; t < base_count; ++t) {
      templates.push_back(PermuteQuery(templates[t], rng));
      ks.push_back(ks[t]);
    }
    for (size_t t = 0; t < templates.size(); ++t) {
      core::StarFramework fw(graph, ensemble, &index, star);
      direct.push_back(fw.TopK(templates[t], ks[t]));
    }
    for (size_t t = 0; t < templates.size(); ++t) {
      alt.push_back(RemapThroughRanks(direct[pair(t)], templates[pair(t)],
                                      templates[t]));
    }
  }
};

/// Fixture-level preconditions for the per-response checks: each permuted
/// template must canonicalize to its base's signature (same cache key),
/// and the two expected lists for a template — its own direct run and the
/// remap of its pair's — must agree on the score sequence (scores are
/// node-order invariant; only tie-group mapping order may differ).
void VerifyReorderedBaselines(const SoakFixture& fx) {
  for (size_t t = 0; t < fx.base_count; ++t) {
    const size_t r = fx.base_count + t;
    ASSERT_EQ(query::CanonicalizeQuery(fx.templates[t]).signature,
              query::CanonicalizeQuery(fx.templates[r]).signature)
        << "permuted template " << t << " lost signature equality";
  }
  for (size_t t = 0; t < fx.templates.size(); ++t) {
    ASSERT_EQ(fx.alt[t].size(), fx.direct[t].size()) << "template " << t;
    for (size_t i = 0; i < fx.direct[t].size(); ++i) {
      ASSERT_EQ(fx.alt[t][i].score, fx.direct[t][i].score)
          << "template " << t << " rank " << i;
    }
  }
}

bool IsBitwisePrefix(const std::vector<core::GraphMatch>& full,
                     const std::vector<core::GraphMatch>& got) {
  if (got.size() > full.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].score != full[i].score || got[i].mapping != full[i].mapping) {
      return false;
    }
  }
  return true;
}

/// A response for template t may be served from either side of its
/// reordered pair; it must be a bitwise prefix of one of the two expected
/// lists — never an interleaving of both (one execution produced it).
void ExpectBitwisePrefixOfEither(const std::vector<core::GraphMatch>& expected,
                                 const std::vector<core::GraphMatch>& alt,
                                 const std::vector<core::GraphMatch>& got,
                                 const char* what) {
  EXPECT_TRUE(IsBitwisePrefix(expected, got) || IsBitwisePrefix(alt, got))
      << what << ": response matches neither the template's direct run nor "
      << "the remap of its reordered pair's";
}

class ServiceSoakTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServiceSoakTest, ConcurrentClientsSurviveChurn) {
  core::StarOptions star;
  star.match = TestConfig(2);
  SoakFixture fx(star);
  VerifyReorderedBaselines(fx);

  ServiceOptions so;
  so.star = star;
  so.max_inflight = 3;
  so.max_queue = 8;  // small bounds => the overload path actually fires
  so.cache_capacity = 64;
  so.star_cache_capacity = 128;
  so.enable_coalescing = GetParam();
  QueryService service(fx.graph, fx.ensemble, &fx.index, so);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  constexpr int kBurst = 4;  // submit in bursts to build queue pressure

  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    while (!stop_churn.load(std::memory_order_relaxed)) {
      service.InvalidateCache();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<int> ok_count{0}, deadline_count{0}, overload_count{0};
  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      struct InFlight {
        std::future<QueryResponse> fut;
        size_t tmpl;
      };
      std::vector<InFlight> burst;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t t = static_cast<size_t>(cl * 17 + i) % fx.templates.size();
        QueryRequest req;
        req.query = fx.templates[t];
        req.k = fx.ks[t];
        if (i % 5 == 4) req.deadline = Deadline::AfterMillis(0.05);
        burst.push_back({service.Submit(std::move(req)), t});
        if (burst.size() < kBurst && i + 1 < kRequestsPerClient) continue;
        for (auto& f : burst) {
          // A lost wakeup shows up as a timeout here, not a hung test run.
          ASSERT_EQ(f.fut.wait_for(std::chrono::seconds(60)),
                    std::future_status::ready)
              << "response future never resolved";
          const QueryResponse resp = f.fut.get();
          const auto& expected = fx.direct[f.tmpl];
          const auto& alt = fx.alt[f.tmpl];
          switch (resp.status.code()) {
            case StatusCode::kOk:
              ok_count.fetch_add(1, std::memory_order_relaxed);
              EXPECT_FALSE(resp.partial);
              ASSERT_EQ(resp.matches.size(), expected.size());
              ExpectBitwisePrefixOfEither(expected, alt, resp.matches,
                                          "ok response");
              break;
            case StatusCode::kDeadlineExceeded:
              deadline_count.fetch_add(1, std::memory_order_relaxed);
              EXPECT_TRUE(resp.partial);
              ExpectBitwisePrefixOfEither(expected, alt, resp.matches,
                                          "partial response");
              break;
            case StatusCode::kOverloaded:
              overload_count.fetch_add(1, std::memory_order_relaxed);
              EXPECT_TRUE(resp.matches.empty());
              break;
            default:
              ADD_FAILURE() << "unexpected status "
                            << resp.status.ToString();
          }
        }
        burst.clear();
      }
    });
  }
  for (auto& c : clients) c.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();

  const int total = kClients * kRequestsPerClient;
  EXPECT_EQ(ok_count + deadline_count + overload_count, total);
  EXPECT_GT(ok_count.load(), 0) << "soak never completed a request";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(total));
  EXPECT_EQ(stats.rejected_invalid, 0u);
  EXPECT_EQ(stats.completed + stats.rejected_overload +
                stats.deadline_exceeded,
            stats.submitted);
}

INSTANTIATE_TEST_SUITE_P(Coalescing, ServiceSoakTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

// ---------------------------------------------------------------------------
// Overload phase: accuracy-first shedding under deterministic saturation.
// ---------------------------------------------------------------------------

/// Deterministic saturation: one worker slot held at a gate while
/// submissions stack the queue one by one, so each request's admission
/// depth — and therefore its shedding-ladder level — is exact. Verifies
/// the ladder's central promise: NOTHING is rejected with kOverloaded
/// until the queue has walked through every level including the deepest,
/// and every degraded answer carries a certificate that is sound against
/// a direct exact run of the same query.
TEST(ServiceSoakOverloadTest, ShedsAccuracyThroughEveryLevelBeforeRejecting) {
  const auto graph = SmallRandomGraph(909, 120, 280);
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(graph);

  core::StarOptions star;
  star.match = TestConfig(2);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServiceOptions so;
  so.star = star;
  so.max_inflight = 1;
  so.max_queue = 10;
  so.cache_capacity = 0;  // every response is a fresh, certifiable run
  so.enable_coalescing = false;
  so.degrade.enable = true;
  so.degrade.l1_max_candidates = 2;  // tight enough to bite on this graph
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  // Distinct star templates so neither caching nor coalescing could ever
  // merge two submissions even if misconfigured.
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  query::WorkloadGenerator wg(graph, 777);
  std::vector<query::QueryGraph> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(wg.RandomStarQuery(3, wo));
  constexpr size_t kK = 4;

  // Admission depth -> expected level with max_queue 10 and the default
  // fractions (.5/.75/.9): the dispatched request and depths 0-4 run
  // nominal, 5-7 at level 1, 8 at level 2, 9 at level 3.
  const int expected_level[12] = {0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, -1};

  std::vector<std::future<QueryResponse>> futs;
  {
    QueryService service(graph, ensemble, &index, so);
    for (int i = 0; i < 12; ++i) {
      QueryRequest req;
      req.query = queries[size_t(i)];
      req.k = kK;
      futs.push_back(service.Submit(std::move(req)));
      if (i == 0) {
        while (entered.load() == 0) std::this_thread::yield();
      }
    }

    // The 12th submission found 1 executing + 10 queued: only now — after
    // level 3 has already been handed out — may kOverloaded appear.
    ASSERT_EQ(futs[11].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futs[11].get().status.code(), StatusCode::kOverloaded);
    {
      const ServiceStats mid = service.stats();
      EXPECT_EQ(mid.rejected_overload, 1u);
      EXPECT_GE(mid.degraded_at_level[3], 1u)
          << "rejection before the deepest level engaged";
    }

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();

    for (int i = 0; i < 11; ++i) {
      const QueryResponse resp = futs[size_t(i)].get();
      ASSERT_TRUE(resp.status.ok()) << "request " << i << ": "
                                    << resp.status.ToString();
      EXPECT_EQ(resp.certificate.degradation_level, expected_level[i])
          << "request " << i;

      // Oracle grading: the prefix claim is bitwise against a direct
      // exact run at the SAME k (tie order at the k boundary legitimately
      // depends on k via Prop. 3 pruning); the bound claim is against the
      // k+1 run's scores, which are rank-invariant.
      core::StarFramework fw(graph, ensemble, &index, star);
      const auto exact = fw.TopK(queries[size_t(i)], kK);
      core::StarFramework fw_next(graph, ensemble, &index, star);
      const auto truth = fw_next.TopK(queries[size_t(i)], kK + 1);
      const size_t p = resp.certificate.guaranteed_prefix;
      ASSERT_LE(p, resp.matches.size()) << "request " << i;
      for (size_t r = 0; r < p; ++r) {
        ASSERT_LT(r, exact.size()) << "request " << i;
        EXPECT_EQ(resp.matches[r].mapping, exact[r].mapping)
            << "request " << i << " rank " << r;
        EXPECT_EQ(resp.matches[r].score, exact[r].score)
            << "request " << i << " rank " << r;
      }
      if (truth.size() > p) {
        EXPECT_GE(resp.certificate.score_bound, truth[p].score - 1e-9)
            << "request " << i
            << ": certified bound below the true rank-" << (p + 1)
            << " score";
      }
      if (expected_level[i] == 0) {
        EXPECT_TRUE(resp.certificate.exact) << "request " << i;
        EXPECT_EQ(resp.matches.size(), exact.size()) << "request " << i;
      }
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.degraded_at_level[0], 6u);
    EXPECT_EQ(stats.degraded_at_level[1], 3u);
    EXPECT_EQ(stats.degraded_at_level[2], 1u);
    EXPECT_EQ(stats.degraded_at_level[3], 1u);
    EXPECT_EQ(stats.rejected_overload, 1u);
  }
}

/// Cache isolation across ladder levels: a nominal answer cached while
/// the service was idle must not be returned to a degraded admission of
/// the same query (its key carries the level), and the degraded entry
/// must not shadow the nominal one afterwards.
TEST(ServiceSoakOverloadTest, CacheHitsNeverCrossDegradationLevels) {
  const auto graph = SmallRandomGraph(911, 120, 280);
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(graph);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServiceOptions so;
  so.star.match = TestConfig(2);
  so.max_inflight = 1;
  so.max_queue = 8;  // level 1 engages at queue depth 4
  so.degrade.enable = true;
  so.degrade.l1_max_candidates = 2;
  so.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  query::WorkloadGenerator wg(graph, 333);
  const query::QueryGraph probe = wg.RandomStarQuery(3, wo);

  QueryService service(graph, ensemble, &index, so);
  const auto submit = [&](const query::QueryGraph& q) {
    QueryRequest req;
    req.query = q;
    req.k = 3;
    return service.Submit(req);
  };

  // Warm the nominal (level-0) cache entry while the service is idle.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  const QueryResponse warm = submit(probe).get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(warm.certificate.degradation_level, 0);
  EXPECT_TRUE(warm.certificate.exact);

  // Close the gate and stack the queue to depth 4, then submit the probe
  // again: it is admitted at level 1 and MUST NOT see the level-0 entry.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = false;
  }
  std::vector<std::future<QueryResponse>> held;
  const int before = entered.load();
  held.push_back(submit(wg.RandomStarQuery(3, wo)));  // takes the worker
  while (entered.load() == before) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    held.push_back(submit(wg.RandomStarQuery(3, wo)));
  }
  std::future<QueryResponse> degraded_fut = submit(probe);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const QueryResponse degraded = degraded_fut.get();
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.certificate.degradation_level, 1);
  EXPECT_FALSE(degraded.cache_hit)
      << "a level-1 admission was served the nominal cache entry";
  for (auto& f : held) ASSERT_TRUE(f.get().status.ok());

  // Idle again: a nominal re-submit must hit the level-0 entry — exact,
  // unshadowed by the degraded insert.
  const QueryResponse again = submit(probe).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.certificate.degradation_level, 0);
  EXPECT_TRUE(again.certificate.exact);
  ASSERT_EQ(again.matches.size(), warm.matches.size());
  for (size_t i = 0; i < again.matches.size(); ++i) {
    EXPECT_EQ(again.matches[i].mapping, warm.matches[i].mapping);
    EXPECT_EQ(again.matches[i].score, warm.matches[i].score);
  }
}

}  // namespace
}  // namespace star::serve
