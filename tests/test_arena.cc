// MonotonicArena unit tests plus the per-query lifetime contract the
// engine relies on: a request arena that served a CANCELLED (truncated)
// run must, after one Reset(), serve the next request with results
// bitwise identical to a fresh arena — no stale state, no leaks, and a
// steady-state footprint (Reset keeps the largest block, so a worker
// thread re-serving the same shape of query stops allocating entirely).
// Suite names match the ASan CI filter (*Arena*, *Cancellation*).

#include "common/arena.h"

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "core/framework.h"
#include "query/workload.h"
#include "serve/query_service.h"
#include "test_helpers.h"

namespace star {
namespace {

using common::MonotonicArena;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

TEST(MonotonicArenaTest, AllocationsAreAlignedAndDisjoint) {
  MonotonicArena arena;
  std::vector<std::pair<std::byte*, size_t>> blocks;
  for (const size_t align : {1u, 2u, 8u, 16u, 64u}) {
    for (const size_t bytes : {1u, 3u, 17u, 256u}) {
      void* p = arena.Allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "bytes=" << bytes << " align=" << align;
      std::memset(p, 0xAB, bytes);  // ASan catches overlap / OOB here
      blocks.emplace_back(static_cast<std::byte*>(p), bytes);
    }
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint = blocks[i].first + blocks[i].second <=
                                blocks[j].first ||
                            blocks[j].first + blocks[j].second <=
                                blocks[i].first;
      EXPECT_TRUE(disjoint) << "allocations " << i << " and " << j;
    }
  }
  EXPECT_GT(arena.bytes_allocated(), 0u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(MonotonicArenaTest, GrowsGeometricallyAndServesOversizedRequests) {
  MonotonicArena arena;
  EXPECT_EQ(arena.block_count(), 0u);
  arena.Allocate(16, 8);
  EXPECT_EQ(arena.block_count(), 1u);
  // An allocation far beyond the current reservation must still succeed.
  const size_t big = 1u << 20;
  void* p = arena.Allocate(big, 64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, big);
  EXPECT_GE(arena.bytes_reserved(), big);
  EXPECT_GE(arena.block_count(), 2u);
}

TEST(MonotonicArenaTest, ResetKeepsOnlyTheLargestBlock) {
  MonotonicArena arena;
  // Force several geometric blocks.
  for (int i = 0; i < 40; ++i) arena.Allocate(1u << 14, 8);
  ASSERT_GT(arena.block_count(), 1u);
  const size_t reserved_before = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_LT(arena.bytes_reserved(), reserved_before);
  // The survivor is the largest block: the steady-state claim is that a
  // same-sized workload now fits without growing the reservation, after
  // at most one more warm-up round (the largest block doubles per round,
  // so the footprint converges instead of ratcheting).
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) arena.Allocate(1u << 14, 8);
    arena.Reset();
  }
  const size_t steady = arena.bytes_reserved();
  for (int i = 0; i < 40; ++i) arena.Allocate(1u << 14, 8);
  EXPECT_EQ(arena.block_count(), 1u) << "steady-state run grew a new block";
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), steady);
}

TEST(MonotonicArenaTest, PmrResourceHasIdentityEqualityAndNoOpDeallocate) {
  MonotonicArena a;
  MonotonicArena b;
  EXPECT_TRUE(a.resource()->is_equal(*a.resource()));
  EXPECT_FALSE(a.resource()->is_equal(*b.resource()));
  EXPECT_FALSE(a.resource()->is_equal(*std::pmr::get_default_resource()));
  {
    std::pmr::vector<int> v(a.resource());
    for (int i = 0; i < 10000; ++i) v.push_back(i);  // grows + "frees"
    std::pmr::vector<int> w(a.resource());
    w = std::move(v);  // equal resources: O(1) steal, no copy
    EXPECT_EQ(w.size(), 10000u);
    EXPECT_EQ(w[9999], 9999);
  }
  // Destruction above deallocated into the arena (a no-op): everything is
  // still owned by the arena until Reset.
  EXPECT_GT(a.bytes_allocated(), 10000u * sizeof(int));
  a.Reset();
  EXPECT_EQ(a.bytes_allocated(), 0u);
}

// ---------------------------------------------------------------------
// Lifetime under cancellation: a truncated run must not poison the arena
// for the next request.
// ---------------------------------------------------------------------

void ExpectSameMatches(const std::vector<core::GraphMatch>& a,
                       const std::vector<core::GraphMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(ArenaCancellationTest, CancelledRunThenResetYieldsIdenticalResults) {
  const auto g = SmallRandomGraph(/*seed=*/77, /*nodes=*/40, /*edges=*/90);
  query::WorkloadGenerator wg(g, /*seed=*/13);
  const auto q = wg.RandomStarQuery(4, query::WorkloadOptions{});
  text::SimilarityEnsemble ensemble;
  const graph::LabelIndex index(g);
  core::StarOptions opts;
  opts.match = TestConfig(/*d=*/2);
  core::StarFramework fw(g, ensemble, &index, opts);

  const auto expected = fw.TopK(q, 10);  // internal fresh arena
  ASSERT_FALSE(expected.empty());

  MonotonicArena arena;
  for (int round = 0; round < 3; ++round) {
    // A request whose deadline already expired: the run truncates almost
    // immediately, leaving arbitrary partially-built state in the arena.
    Cancellation expired((Deadline::Expired()));
    arena.Reset();
    const auto truncated = fw.TopK(q, 10, &expired, &arena);
    EXPECT_LE(truncated.size(), expected.size());

    // One Reset later the same arena must serve a complete, bitwise
    // identical answer — truncation left nothing behind.
    arena.Reset();
    Cancellation none;
    ExpectSameMatches(fw.TopK(q, 10, &none, &arena), expected);
  }
}

TEST(ArenaCancellationTest, ExpiredRequestDoesNotPoisonWorkerArena) {
  // Service-level version of the same contract: the per-worker
  // thread_local arena is reset once per request, so a truncated request
  // must not affect the next request served by the same worker.
  const auto g = SmallRandomGraph(/*seed=*/99, /*nodes=*/40, /*edges=*/90);
  query::WorkloadGenerator wg(g, /*seed=*/21);
  const auto q = wg.RandomStarQuery(4, query::WorkloadOptions{});
  text::SimilarityEnsemble ensemble;
  const graph::LabelIndex index(g);

  serve::ServiceOptions so;
  so.star.match = TestConfig(/*d=*/2);
  so.max_inflight = 1;  // one worker: both requests share its arena
  serve::QueryService service(g, ensemble, &index, so);

  core::StarFramework fw(g, ensemble, &index, so.star);
  const auto expected = fw.TopK(q, 10);

  for (int round = 0; round < 3; ++round) {
    serve::QueryRequest doomed;
    doomed.query = q;
    doomed.k = 10;
    doomed.deadline = Deadline::AfterMillis(0.01);
    doomed.use_cache = false;  // every request runs on the worker
    const auto dr = service.Execute(std::move(doomed));
    EXPECT_NE(dr.status.code(), StatusCode::kOk);

    serve::QueryRequest fresh;
    fresh.query = q;
    fresh.k = 10;
    fresh.use_cache = false;
    const auto fr = service.Execute(std::move(fresh));
    ASSERT_TRUE(fr.status.ok()) << fr.status.ToString();
    ExpectSameMatches(fr.matches, expected);
  }
}

}  // namespace
}  // namespace star
