// topk_dump: prints the StarFramework::TopK answers of the benchmark's query
// pools, one line per match (its score in %a, then the data node of each
// query node), so that the answers of two builds can be compared with diff.
//
// Set-up: DBpediaLike(20000) with its label index and the full similarity
// context (built-in synonyms and ontology, tf-idf over the graph's labels),
// the matching settings of BenchConfig(d) and the query settings of
// BenchWorkloadOptions(), query seed 2016, k = 10, one request arena.
//
//   join   the first 256 RandomGraphQuery(6, 8) draws that are not stars
//          (perfbench's join_saturated pool), under stard and stark at
//          d = 1;
//   star   RandomStarQuery(3 + i % 3) for i < 128 from a fresh generator
//          (perfbench's overload_open pool), under stard, stark and the
//          hybrid at d = 1 and d = 2, and its first 16 queries under stard
//          at d = 3, where the candidate plan's radius is 3.
//
// Each cell's totals go to stderr: answers, F_N nodes scored, star matches
// read and pivot candidates.
//
// Reuse identity: after its uncached pass, each cell runs its queries twice
// more through a framework with a serve::StarCache attached, first cold and
// then warm, and compares every answer bitwise with the uncached one. The
// cell's stderr line adds the cache's top-list hits and the mismatches;
// any mismatch makes the exit status 1.
//
// Usage: topk_dump > dump.txt

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/arena.h"
#include "core/framework.h"
#include "query/workload.h"
#include "serve/star_cache.h"

namespace {

using namespace star;

constexpr size_t kNodes = 20000;
constexpr uint64_t kQuerySeed = 2016;
constexpr size_t kJoinPool = 256;
constexpr size_t kStarPool = 128;
constexpr size_t kDeepStars = 16;  // the d = 3 cell's share of the pool
constexpr size_t kK = 10;
// Room for every star of a pool, so the warm pass can replay them all.
constexpr size_t kStarCacheCapacity = 1024;

struct Strategy {
  core::StarStrategy strategy;
  const char* name;
};

/// Dumps one cell and runs its reuse check; returns the mismatches.
size_t DumpCell(const bench::Dataset& d, const char* pool_name,
                const std::vector<query::QueryGraph>& queries,
                const Strategy& s, int depth) {
  core::StarOptions options;
  options.strategy = s.strategy;
  options.match = bench::BenchConfig(depth);
  core::StarFramework fw(d.graph, *d.ensemble, d.index.get(), options);
  common::MonotonicArena arena;
  size_t answered = 0;
  size_t nodes_scored = 0;
  size_t matches_read = 0;
  size_t pivot_candidates = 0;
  std::vector<std::vector<core::GraphMatch>> answers;
  for (size_t i = 0; i < queries.size(); ++i) {
    arena.Reset();
    const std::vector<core::GraphMatch> matches =
        fw.TopK(queries[i], kK, nullptr, &arena);
    const core::FrameworkStats& stats = fw.last_stats();
    std::printf("%s %zu %s d=%d answers %zu\n", pool_name, i, s.name, depth,
                matches.size());
    for (const core::GraphMatch& m : matches) {
      std::printf("  %a", m.score);
      for (const graph::NodeId v : m.mapping) {
        std::printf(" %u", static_cast<unsigned>(v));
      }
      std::printf("\n");
    }
    answered += matches.empty() ? 0 : 1;
    nodes_scored += stats.retrieval.nodes_scored;
    matches_read += stats.total_depth;
    pivot_candidates += stats.search.pivot_candidates;
    answers.push_back(matches);
  }

  serve::StarCache cache(kStarCacheCapacity);
  options.reuse = &cache;
  core::StarFramework cached(d.graph, *d.ensemble, d.index.get(), options);
  size_t mismatches = 0;
  for (const char* pass : {"cold", "warm"}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      arena.Reset();
      if (!bench::SameMatches(cached.TopK(queries[i], kK, nullptr, &arena),
                              answers[i])) {
        std::fprintf(stderr, "%s %zu %s d=%d: %s cached answer differs\n",
                     pool_name, i, s.name, depth, pass);
        ++mismatches;
      }
    }
  }
  std::fprintf(stderr,
               "%s %s d=%d: %zu queries, %zu answered, %zu nodes scored "
               "(%.1f a request), %zu star matches read, %zu pivot "
               "candidates; reuse: %llu top-list hits, %zu mismatches\n",
               pool_name, s.name, depth, queries.size(), answered,
               nodes_scored,
               static_cast<double>(nodes_scored) /
                   static_cast<double>(queries.size()),
               matches_read, pivot_candidates,
               static_cast<unsigned long long>(cache.stats().toplist_hits),
               mismatches);
  return mismatches;
}

}  // namespace

int main() {
  const bench::Dataset d = bench::MakeDataset(graph::DBpediaLike(kNodes));
  const query::WorkloadOptions wo = bench::BenchWorkloadOptions();

  std::vector<query::QueryGraph> joins;
  {
    query::WorkloadGenerator wg(d.graph, kQuerySeed);
    while (joins.size() < kJoinPool) {
      query::QueryGraph q = wg.RandomGraphQuery(6, 8, wo);
      if (!q.IsStar()) joins.push_back(std::move(q));
    }
  }
  std::vector<query::QueryGraph> stars;
  {
    query::WorkloadGenerator wg(d.graph, kQuerySeed);
    for (size_t i = 0; i < kStarPool; ++i) {
      stars.push_back(wg.RandomStarQuery(3 + static_cast<int>(i % 3), wo));
    }
  }

  const Strategy stard{core::StarStrategy::kStard, "stard"};
  const Strategy stark{core::StarStrategy::kStark, "stark"};
  const Strategy hybrid{core::StarStrategy::kHybrid, "hybrid"};
  size_t mismatches = 0;
  for (const Strategy& s : {stard, stark}) {
    mismatches += DumpCell(d, "join", joins, s, 1);
  }
  for (const int depth : {1, 2}) {
    for (const Strategy& s : {stard, stark, hybrid}) {
      mismatches += DumpCell(d, "star", stars, s, depth);
    }
  }
  const std::vector<query::QueryGraph> deep(stars.begin(),
                                            stars.begin() + kDeepStars);
  mismatches += DumpCell(d, "star", deep, stard, 3);
  return mismatches == 0 ? 0 : 1;
}
