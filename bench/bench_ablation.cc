// Ablations of the design choices DESIGN.md calls out:
//  (1) pivot-set identification strategy: stark (eager traversal per
//      candidate) vs stard (message passing) vs the §V-C hybrid
//      (closed-form bound descent) — runtime and per-pivot traversals;
//  (2) Prop. 3 list pruning on vs off inside the per-pivot enumerators.

#include "bench_util.h"
#include "core/star_search.h"

int main() {
  using namespace star;
  using namespace star::bench;

  const size_t n = EnvSize("STAR_BENCH_NODES", 20000);
  const size_t num_queries = EnvSize("STAR_BENCH_QUERIES", 10);
  const auto d = MakeDataset(graph::DBpediaLike(n));

  query::WorkloadGenerator wg(d.graph, 4242);
  auto wo = BenchWorkloadOptions();
  wo.partial_label = 0.8;  // ambiguous pivots: many candidates
  const auto queries =
      wg.StarWorkload(static_cast<int>(num_queries), 3, 5, wo);

  // --- (1) pivot-set identification --------------------------------------
  PrintTitle("Ablation 1: pivot-set identification, k=20 (" + d.name + ")");
  std::printf("%-9s %28s %28s %28s\n", "", "stark", "stard", "hybrid");
  std::printf("%-9s %14s %13s %14s %13s %14s %13s\n", "d", "ms", "enums",
              "ms", "enums", "ms", "enums");
  for (int bound = 1; bound <= 3; ++bound) {
    const auto match = BenchConfig(bound);
    std::printf("%-9d", bound);
    for (const auto strategy :
         {core::StarStrategy::kStark, core::StarStrategy::kStard,
          core::StarStrategy::kHybrid}) {
      StatAccumulator ms;
      size_t enums = 0;
      for (const auto& q : queries) {
        scoring::QueryScorer scorer(d.graph, q, *d.ensemble, match,
                                    d.index.get());
        WallTimer t;
        core::StarSearch::Options so;
        so.strategy = strategy;
        so.k_hint = 20;
        core::StarSearch search(scorer, core::MakeStarQuery(q), so);
        search.TopK(20);
        ms.Add(t.ElapsedMillis());
        enums += search.stats().enumerators_built;
      }
      std::printf(" %14.1f %13.1f", ms.Mean(),
                  static_cast<double>(enums) / queries.size());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("(enums = per-pivot enumerators built per query; stark still "
              "traverses every candidate for its exact top-1)\n\n");

  // --- (2) Prop. 3 pruning ------------------------------------------------
  PrintTitle("Ablation 2: Prop. 3 leaf-list pruning in the enumerators, d=2");
  std::printf("%-11s %14s %14s\n", "k", "pruned [ms]", "unpruned [ms]");
  const auto match = BenchConfig(2);
  for (const size_t k : {size_t{10}, size_t{50}, size_t{200}}) {
    std::printf("%-11zu", k);
    for (const size_t k_hint : {k, size_t{0}}) {
      StatAccumulator ms;
      for (const auto& q : queries) {
        scoring::QueryScorer scorer(d.graph, q, *d.ensemble, match,
                                    d.index.get());
        WallTimer t;
        core::StarSearch::Options so;
        so.strategy = core::StarStrategy::kStard;
        so.k_hint = k_hint;
        core::StarSearch search(scorer, core::MakeStarQuery(q), so);
        search.TopK(k);
        ms.Add(t.ElapsedMillis());
      }
      std::printf(" %14.1f", ms.Mean());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
