// Cross-query reuse benchmark: drives serve::QueryService with a
// template-skewed workload (a small pool of query templates, each
// submitted many times) and compares throughput/latency with the
// star-level reuse cache + single-flight coalescing ON vs OFF. The result
// cache is disabled in BOTH arms, so the measured gap is attributable to
// star-prefix replay, candidate-list seeding, and coalescing — not to
// whole-result memoization. JSON on stdout (BENCH_reuse.json).
//
// Each scenario is timed over repeated passes (at least 5, and at least
// 1 s), each on a fresh QueryService, so every pass replays the same
// cold-to-warm sequence; it reports the median pass's QPS with its
// quartiles, and the per-pass means of the reuse counters. Every OK
// response of every pass is checked bitwise against a direct
// StarFramework::TopK run of the same query — the process exits non-zero
// if warm/coalesced serving ever diverges from direct execution.
//
// Environment overrides:
//   STAR_BENCH_NODES       dataset size (default 10000)
//   STAR_REUSE_REQUESTS    requests per pass (default 96)
//   STAR_REUSE_TEMPLATES   distinct queries in the pool (default 8)

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/query_service.h"

namespace star::bench {
namespace {

struct Scenario {
  int clients;
  bool reuse;  // star cache + coalescing on?
};

constexpr size_t kMinPasses = 5;
constexpr double kMinSeconds = 1.0;

struct ScenarioResult {
  Scenario scenario;
  size_t passes = 0;
  double qps = 0.0;     // median pass
  double qps_q1 = 0.0;  // pass quartiles
  double qps_q3 = 0.0;
  double p50_ms = 0.0;  // over every request of every pass
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double toplist_hits = 0.0;  // per-pass means
  double candidate_hits = 0.0;
  double coalesced = 0.0;
  size_t mismatches = 0;  // over every pass
  size_t errors = 0;
};

bool SameMatches(const std::vector<core::GraphMatch>& a,
                 const std::vector<core::GraphMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping || a[i].score != b[i].score) return false;
  }
  return true;
}

/// One pass: `total_requests` requests through a fresh service. Adds each
/// latency to `lat` and the pass's counters to `r`; returns its wall time.
double RunPass(const Dataset& d, const core::StarOptions& star,
               const std::vector<query::QueryGraph>& pool,
               const std::vector<std::vector<core::GraphMatch>>& expected,
               const Scenario& sc, size_t total_requests, size_t k,
               StatAccumulator* lat, ScenarioResult* r) {
  serve::ServiceOptions so;
  so.star = star;
  so.max_inflight = sc.clients;
  so.max_queue = total_requests;  // this bench measures latency, not shed load
  so.cache_capacity = 0;  // whole-result memoization off in BOTH arms
  so.star_cache_capacity = sc.reuse ? 4096 : 0;
  so.enable_coalescing = sc.reuse;

  serve::QueryService service(d.graph, *d.ensemble, d.index.get(), so);

  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> errors{0};
  std::vector<std::vector<double>> latencies(sc.clients);

  WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < sc.clients; ++c) {
    clients.emplace_back([&, c] {
      latencies[c].reserve(total_requests / sc.clients + 1);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= total_requests) return;
        const size_t qi = i % pool.size();
        serve::QueryRequest req;
        req.query = pool[qi];
        req.k = k;
        WallTimer t;
        const serve::QueryResponse resp = service.Execute(std::move(req));
        latencies[c].push_back(t.ElapsedMillis());
        if (!resp.status.ok()) {
          errors.fetch_add(1);
        } else if (!SameMatches(resp.matches, expected[qi])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s = wall.ElapsedSeconds();

  for (const auto& per_client : latencies) {
    for (const double ms : per_client) lat->Add(ms);
  }
  const serve::StarCacheStats cs = service.star_cache_stats();
  r->toplist_hits += cs.toplist_hits;
  r->candidate_hits += cs.candidate_hits;
  r->coalesced += service.stats().coalesced_followers;
  r->mismatches += mismatches.load();
  r->errors += errors.load();
  return wall_s;
}

ScenarioResult RunScenario(const Dataset& d, const core::StarOptions& star,
                           const std::vector<query::QueryGraph>& pool,
                           const std::vector<std::vector<core::GraphMatch>>&
                               expected,
                           const Scenario& sc, size_t total_requests,
                           size_t k) {
  ScenarioResult r;
  r.scenario = sc;
  StatAccumulator lat;
  StatAccumulator pass_qps;
  const WallTimer total;
  while (pass_qps.count() < kMinPasses ||
         total.ElapsedSeconds() < kMinSeconds) {
    const double wall_s =
        RunPass(d, star, pool, expected, sc, total_requests, k, &lat, &r);
    pass_qps.Add(total_requests / wall_s);
  }
  r.passes = pass_qps.count();
  r.qps = pass_qps.Percentile(0.50);
  r.qps_q1 = pass_qps.Percentile(0.25);
  r.qps_q3 = pass_qps.Percentile(0.75);
  r.p50_ms = lat.Percentile(0.50);
  r.p95_ms = lat.Percentile(0.95);
  r.p99_ms = lat.Percentile(0.99);
  r.toplist_hits /= r.passes;
  r.candidate_hits /= r.passes;
  r.coalesced /= r.passes;
  return r;
}

}  // namespace
}  // namespace star::bench

int main() {
  using namespace star;
  using namespace star::bench;

  const size_t nodes = EnvSize("STAR_BENCH_NODES", 10000);
  const size_t total_requests = EnvSize("STAR_REUSE_REQUESTS", 96);
  const size_t templates = EnvSize("STAR_REUSE_TEMPLATES", 8);
  const size_t k = 10;
  const Dataset d = MakeDataset(graph::DBpediaLike(nodes));

  core::StarOptions star;
  star.match = BenchConfig(1);

  query::WorkloadGenerator wg(d.graph, /*seed=*/83);
  std::vector<query::QueryGraph> pool;
  std::vector<std::vector<core::GraphMatch>> expected;
  for (size_t i = 0; i < templates; ++i) {
    pool.push_back(wg.RandomStarQuery(3, BenchWorkloadOptions()));
    core::StarFramework fw(d.graph, *d.ensemble, d.index.get(), star);
    expected.push_back(fw.TopK(pool.back(), k));
  }

  const std::vector<Scenario> scenarios = {
      {1, false}, {1, true},  // single client: pure replay speedup
      {4, false}, {4, true},
      {8, false}, {8, true},  // concurrency: replay + coalescing
  };

  std::vector<ScenarioResult> results;
  for (const Scenario& sc : scenarios) {
    results.push_back(
        RunScenario(d, star, pool, expected, sc, total_requests, k));
    const ScenarioResult& r = results.back();
    std::fprintf(stderr,
                 "[reuse] clients=%d reuse=%s passes=%zu qps=%.1f "
                 "[%.1f, %.1f] p50=%.2fms p95=%.2fms (per pass: toplist "
                 "hits %.1f, cand hits %.1f, coalesced %.1f; %zu mismatches, "
                 "%zu errors)\n",
                 sc.clients, sc.reuse ? "on" : "off", r.passes, r.qps,
                 r.qps_q1, r.qps_q3, r.p50_ms, r.p95_ms, r.toplist_hits,
                 r.candidate_hits, r.coalesced, r.mismatches, r.errors);
  }

  size_t total_mismatches = 0, total_errors = 0;
  for (const ScenarioResult& r : results) {
    total_mismatches += r.mismatches;
    total_errors += r.errors;
  }
  const bool ok = total_mismatches == 0 && total_errors == 0;

  // Paired off→on speedups per client count (same workload, same machine).
  std::printf("{\n");
  std::printf("  \"bench\": \"template_reuse\",\n");
  PrintHostJson();
  std::printf("  \"dataset\": {\"name\": \"%s\", \"nodes\": %zu, \"edges\": %zu},\n",
              d.name.c_str(), d.graph.node_count(), d.graph.edge_count());
  std::printf(
      "  \"workload\": {\"requests_per_pass\": %zu, \"templates\": %zu, "
      "\"k\": %zu, \"min_passes\": %zu, \"min_seconds\": %.1f},\n",
      total_requests, templates, k, kMinPasses, kMinSeconds);
  std::printf("  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf(
        "    {\"clients\": %d, \"reuse\": %s, \"passes\": %zu, "
        "\"qps\": %.1f, \"qps_q1\": %.1f, \"qps_q3\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"toplist_hits\": %.1f, \"candidate_hits\": %.1f, "
        "\"coalesced_followers\": %.1f}%s\n",
        r.scenario.clients, r.scenario.reuse ? "true" : "false", r.passes,
        r.qps, r.qps_q1, r.qps_q3, r.p50_ms, r.p95_ms, r.p99_ms,
        r.toplist_hits, r.candidate_hits, r.coalesced,
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"speedups\": [\n");
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const ScenarioResult& off = results[i];
    const ScenarioResult& on = results[i + 1];
    std::printf(
        "    {\"clients\": %d, \"qps_speedup\": %.2f, \"p95_reduction\": "
        "%.2f}%s\n",
        off.scenario.clients, on.qps / off.qps,
        on.p95_ms > 0 ? off.p95_ms / on.p95_ms : 0.0,
        i + 2 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"identity\": {\"mismatches\": %zu, \"errors\": %zu, \"served_equals_direct\": %s}\n",
              total_mismatches, total_errors, ok ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr, "identity: %s\n",
               ok ? "warm/coalesced results bitwise identical to direct TopK"
                  : "MISMATCH — reuse diverges from direct execution");
  return ok ? 0 : 1;
}
