// Graceful-degradation benchmark: measures the accuracy/latency trade of
// each shedding-ladder level against the exact oracle, and demonstrates
// that accuracy-first shedding absorbs overload that a reject-only
// service bounces. JSON on stdout (BENCH_degrade.json).
//
// Three gates make this a correctness check as much as a measurement —
// the process exits non-zero if any fails:
//   1. identity: level 0 is bitwise identical to a direct exact run;
//   2. certificates: for every query x level, the guaranteed prefix is
//      bitwise exact, measured recall@k is at least the certificate's
//      floor (guaranteed_prefix / k), and the certified score bound
//      dominates the true rank-(prefix+1) score;
//   3. shedding: under an offered load the nominal service cannot sustain,
//      the degrade-enabled service rejects strictly fewer requests with
//      kOverloaded than the reject-only one.
//
// Each level's throughput is timed over repeated passes of the pool (at
// least 5, and at least 1 s unless --quick), reported as the median pass
// with its quartiles; the identity and certificate gates run on every
// pass.
//
// Usage: bench_degraded_serving [--quick]
// Environment overrides:
//   STAR_BENCH_NODES       dataset size (default 10000; --quick 2000)
//   STAR_DEGRADE_QUERIES   pool size (default 32; --quick 10)

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/degrade.h"
#include "serve/query_service.h"

namespace star::bench {
namespace {

constexpr double kEps = 1e-9;

struct LevelResult {
  int level = 0;
  double recall_avg = 0.0;
  double cert_floor_avg = 0.0;  // avg guaranteed_prefix / k
  size_t passes = 0;
  double qps = 0.0;     // median pass
  double qps_q1 = 0.0;  // pass quartiles
  double qps_q3 = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t identity_mismatches = 0;   // level 0 only
  size_t cert_violations = 0;
};

/// Fraction of the exact top-k score multiset the degraded answer
/// recovered. Score-based (not mapping-based) so equal-score siblings —
/// which the engine may legally order either way — count as recalled.
double RecallAtK(const std::vector<core::GraphMatch>& got,
                 const std::vector<core::GraphMatch>& exact) {
  if (exact.empty()) return 1.0;
  std::vector<double> want;
  for (const auto& m : exact) want.push_back(m.score);
  size_t hit = 0;
  for (const auto& m : got) {
    for (auto it = want.begin(); it != want.end(); ++it) {
      if (std::abs(*it - m.score) <= kEps) {
        want.erase(it);
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

LevelResult RunLevel(const Dataset& d, const core::StarOptions& nominal,
                     const serve::DegradePolicy& policy, int level,
                     const std::vector<query::QueryGraph>& pool, size_t k,
                     const std::vector<std::vector<core::GraphMatch>>& exact,
                     const std::vector<std::vector<core::GraphMatch>>& truth,
                     size_t min_passes, double min_seconds) {
  core::StarOptions effective = nominal;
  serve::ApplyDegradation(policy, level, &effective);

  LevelResult r;
  r.level = level;
  StatAccumulator lat;
  StatAccumulator pass_qps;
  double recall_sum = 0.0;
  double floor_sum = 0.0;
  const WallTimer total;
  while (pass_qps.count() < min_passes ||
         total.ElapsedSeconds() < min_seconds) {
    const WallTimer wall;
    for (size_t i = 0; i < pool.size(); ++i) {
      core::StarFramework fw(d.graph, *d.ensemble, d.index.get(), effective);
      const WallTimer t;
      const auto out = fw.TopK(pool[i], k);
      lat.Add(t.ElapsedMillis());
      const auto cert = serve::BuildCertificate(
          pool[i], nominal, effective, level, fw.last_stats(), out);

      if (level == 0 && !SameMatches(out, exact[i])) ++r.identity_mismatches;

      const double recall = RecallAtK(out, exact[i]);
      recall_sum += recall;
      const double floor =
          static_cast<double>(cert.guaranteed_prefix) /
          static_cast<double>(std::max<size_t>(1, exact[i].size()));
      floor_sum += floor;

      // Certificate soundness, graded against the oracle:
      //  - the guaranteed prefix must be bitwise the exact prefix;
      //  - the recall the certificate promises must be <= the measured one;
      //  - the bound must dominate the true rank-(prefix+1) score.
      const size_t p = cert.guaranteed_prefix;
      bool bad = p > out.size();
      for (size_t j = 0; !bad && j < p; ++j) {
        bad = j >= exact[i].size() ||
              out[j].mapping != exact[i][j].mapping ||
              out[j].score != exact[i][j].score;
      }
      if (recall + kEps < floor) bad = true;
      if (truth[i].size() > p &&
          cert.score_bound < truth[i][p].score - kEps) {
        bad = true;
      }
      if (bad) ++r.cert_violations;
    }
    pass_qps.Add(pool.size() / wall.ElapsedSeconds());
  }
  r.passes = pass_qps.count();
  r.recall_avg = recall_sum / lat.count();
  r.cert_floor_avg = floor_sum / lat.count();
  r.qps = pass_qps.Percentile(0.50);
  r.qps_q1 = pass_qps.Percentile(0.25);
  r.qps_q3 = pass_qps.Percentile(0.75);
  r.p50_ms = lat.Percentile(0.50);
  r.p99_ms = lat.Percentile(0.99);
  return r;
}

struct ShedResult {
  size_t ok = 0;
  size_t overloaded = 0;
  size_t other = 0;
  std::array<uint64_t, serve::kMaxDegradationLevel + 1> at_level{};
};

/// Open-loop burst: requests paced at a fixed interval the NOMINAL
/// service cannot sustain. The reject-only service must bounce the
/// excess; the shedding service absorbs it by degrading.
ShedResult RunShedPhase(const Dataset& d, const core::StarOptions& nominal,
                        const serve::DegradePolicy& policy, bool enable,
                        const std::vector<query::QueryGraph>& pool, size_t k,
                        size_t requests, double interval_ms) {
  serve::ServiceOptions so;
  so.star = nominal;
  so.max_inflight = 2;
  // 10 slots so every ladder rung is reachable: with the default
  // fractions, level 3 engages at admission depth 9 — one slot before
  // the queue is full and kOverloaded becomes the only option left.
  so.max_queue = 10;
  so.cache_capacity = 0;  // every admission is a real execution
  so.enable_coalescing = false;
  so.degrade = policy;
  so.degrade.enable = enable;
  serve::QueryService service(d.graph, *d.ensemble, d.index.get(), so);

  std::vector<std::future<serve::QueryResponse>> futs;
  futs.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    serve::QueryRequest req;
    req.query = pool[i % pool.size()];
    req.k = k;
    req.use_cache = false;
    futs.push_back(service.Submit(std::move(req)));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(interval_ms));
  }

  ShedResult r;
  for (auto& f : futs) {
    const serve::QueryResponse resp = f.get();
    if (resp.status.ok()) {
      ++r.ok;
    } else if (resp.status.code() == StatusCode::kOverloaded) {
      ++r.overloaded;
    } else {
      ++r.other;
    }
  }
  r.at_level = service.stats().degraded_at_level;
  return r;
}

}  // namespace
}  // namespace star::bench

int main(int argc, char** argv) {
  using namespace star;
  using namespace star::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t nodes = EnvSize("STAR_BENCH_NODES", quick ? 2000 : 10000);
  const size_t pool_size =
      EnvSize("STAR_DEGRADE_QUERIES", quick ? 10 : 32);
  const size_t k = 10;
  const Dataset d = MakeDataset(graph::DBpediaLike(nodes));

  core::StarOptions nominal;
  nominal.match = BenchConfig(2);

  serve::DegradePolicy policy;
  policy.enable = true;
  policy.l1_max_candidates = 32;

  query::WorkloadGenerator wg(d.graph, /*seed=*/83);
  std::vector<query::QueryGraph> pool;
  std::vector<std::vector<core::GraphMatch>> exact;   // top-k oracle
  std::vector<std::vector<core::GraphMatch>> truth;   // top-(k+1): bound truth
  for (size_t i = 0; i < pool_size; ++i) {
    pool.push_back(wg.RandomStarQuery(3, BenchWorkloadOptions()));
    core::StarFramework fw(d.graph, *d.ensemble, d.index.get(), nominal);
    exact.push_back(fw.TopK(pool.back(), k));
    core::StarFramework fw_next(d.graph, *d.ensemble, d.index.get(), nominal);
    truth.push_back(fw_next.TopK(pool.back(), k + 1));
  }

  const size_t min_passes = 5;
  const double min_seconds = quick ? 0.0 : 1.0;
  std::vector<LevelResult> levels;
  for (int level = 0; level <= serve::kMaxDegradationLevel; ++level) {
    levels.push_back(RunLevel(d, nominal, policy, level, pool, k, exact,
                              truth, min_passes, min_seconds));
    const LevelResult& r = levels.back();
    std::fprintf(stderr,
                 "[degrade] level=%d recall=%.3f floor=%.3f passes=%zu "
                 "qps=%.1f [%.1f, %.1f] p50=%.2fms p99=%.2fms "
                 "(mismatches=%zu violations=%zu)\n",
                 r.level, r.recall_avg, r.cert_floor_avg, r.passes, r.qps,
                 r.qps_q1, r.qps_q3, r.p50_ms, r.p99_ms,
                 r.identity_mismatches, r.cert_violations);
  }

  // Shedding phase: offer load at twice the nominal service's capacity
  // (2 workers draining p50-latency queries). The deepest level must be
  // far cheaper than nominal for shedding to absorb this — that ratio is
  // exactly what the ladder exists to provide.
  const double interval_ms = levels[0].p50_ms / 2.0 / 2.0;
  const size_t burst = quick ? 60 : 160;
  const ShedResult reject_only =
      RunShedPhase(d, nominal, policy, false, pool, k, burst, interval_ms);
  const ShedResult shed =
      RunShedPhase(d, nominal, policy, true, pool, k, burst, interval_ms);
  std::fprintf(stderr,
               "[shed] reject-only: ok=%zu overloaded=%zu | shedding: ok=%zu "
               "overloaded=%zu levels=[%llu %llu %llu %llu]\n",
               reject_only.ok, reject_only.overloaded, shed.ok,
               shed.overloaded,
               static_cast<unsigned long long>(shed.at_level[0]),
               static_cast<unsigned long long>(shed.at_level[1]),
               static_cast<unsigned long long>(shed.at_level[2]),
               static_cast<unsigned long long>(shed.at_level[3]));

  size_t mismatches = 0, violations = 0;
  for (const LevelResult& r : levels) {
    mismatches += r.identity_mismatches;
    violations += r.cert_violations;
  }
  const bool saturated = reject_only.overloaded > 0;
  const bool shed_wins = saturated && shed.overloaded < reject_only.overloaded;
  const bool ok = mismatches == 0 && violations == 0 && shed_wins &&
                  reject_only.other == 0 && shed.other == 0;

  std::printf("{\n");
  std::printf("  \"bench\": \"degraded_serving\",\n");
  PrintHostJson();
  std::printf("  \"dataset\": {\"name\": \"%s\", \"nodes\": %zu, \"edges\": %zu},\n",
              d.name.c_str(), d.graph.node_count(), d.graph.edge_count());
  std::printf("  \"workload\": {\"queries\": %zu, \"k\": %zu, "
              "\"l1_max_candidates\": %zu, \"l2_sample_rate\": %.2f},\n",
              pool_size, k, policy.l1_max_candidates, serve::kL2SampleRate);
  std::printf("  \"levels\": [\n");
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& r = levels[i];
    std::printf(
        "    {\"level\": %d, \"recall_at_k\": %.4f, \"cert_floor\": %.4f, "
        "\"passes\": %zu, \"qps\": %.1f, \"qps_q1\": %.1f, "
        "\"qps_q3\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
        r.level, r.recall_avg, r.cert_floor_avg, r.passes, r.qps, r.qps_q1,
        r.qps_q3, r.p50_ms, r.p99_ms, i + 1 < levels.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"shedding\": {\"requests\": %zu, \"interval_ms\": %.3f, "
              "\"reject_only_overloaded\": %zu, \"shed_overloaded\": %zu, "
              "\"shed_ok\": %zu, \"degraded_at_level\": [%llu, %llu, %llu, %llu]},\n",
              burst, interval_ms, reject_only.overloaded, shed.overloaded,
              shed.ok,
              static_cast<unsigned long long>(shed.at_level[0]),
              static_cast<unsigned long long>(shed.at_level[1]),
              static_cast<unsigned long long>(shed.at_level[2]),
              static_cast<unsigned long long>(shed.at_level[3]));
  std::printf("  \"gates\": {\"level0_identity\": %s, \"certificates_sound\": %s, "
              "\"shedding_beats_reject_only\": %s}\n",
              mismatches == 0 ? "true" : "false",
              violations == 0 ? "true" : "false",
              shed_wins ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr, "gates: %s\n",
               ok ? "all passed"
                  : "FAILED — see identity/certificate/shedding counters");
  return ok ? 0 : 1;
}
