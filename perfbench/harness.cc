// Benchmark of record for serve::QueryService (see README.md).
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out FILE]
//
// One invocation sets up the pinned dataset (several times, to time
// set-up), generates the workload's requests from the seed, computes the
// exact answers with StarFramework::TopK, warms the process up, and then
// drives a fresh QueryService for S seconds. Every response is checked.
//
// --trace 0 prints the end-to-end metrics. --trace 1 repeats the run with
// spans recorded around every Submit and every wait, then replays the
// executed requests through the public calls StarFramework::TopK makes,
// timing each layer, and prints the per-layer metrics.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it is the run's record (host, build, workload
// parameters, sample counts, check tallies).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "calltree.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/decomposition.h"
#include "core/framework.h"
#include "core/rank_join.h"
#include "graph/graph_generator.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/query_canonical.h"
#include "query/query_template.h"
#include "query/workload.h"
#include "serve/degrade.h"
#include "serve/query_service.h"
#include "stats.h"
#include "text/ensemble.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace perfbench {
namespace {

using namespace star;
using core::GraphMatch;
using Matches = std::vector<GraphMatch>;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Pinned parameters. Changing any of them changes the benchmark of record.
// ---------------------------------------------------------------------------

constexpr size_t kNodes = 20000;     // graph::DBpediaLike(20000), seed 42
constexpr size_t kK = 10;
constexpr int kSetupRepeats = 15;    // setup_s is the median of these
constexpr double kWarmupSeconds = 1.0;
// The query pools are pinned too: generated from kQuerySeed, not from the
// run's seed, which draws only the request order, the arrival schedule,
// the Zipf draws and the reorderings. Per-query cost is heavy-tailed (p95
// is 3-4x p50 on star_light), so pools drawn per seed moved star_light's
// goodput by 15% between seeds.
//
// A closed-loop run is a series of passes, each sending the same request
// sequence (the whole pool, or kZipfPass draws) to a fresh service, until
// --seconds have passed; goodput is the median over passes. Every pass
// sees the same query mix, and one slow pass does not move the median.
constexpr uint64_t kQuerySeed = 2016;
constexpr size_t kStarPool = 64;       // star_light: ~3 s a pass
constexpr size_t kJoinPool = 256;      // join_saturated: ~2.5 s a pass
constexpr size_t kOverloadPool = 128;  // overload_open
constexpr size_t kZipfPass = 2500;     // warm_zipf: ~3 s a pass
constexpr size_t kZipfInstances = 512;  // > the result cache's 128 entries
constexpr double kZipfS = 1.0;
constexpr double kReorderShare = 0.25;
constexpr double kOverloadRate = 160.0;  // ~2x the 4-worker capacity
constexpr size_t kOverloadQueue = 16;
constexpr double kOverloadDeadlineMs = 1000.0;
constexpr int kOpenWaiters = 6;      // > max_inflight: see RunOpen
constexpr double kEps = 1e-9;
// An open-loop run is off schedule when the generator's p99 lateness
// exceeds this share of its p50 latency.
constexpr double kLatenessBound = 0.10;

// Matching semantics and query recipe: pinned copies of BenchConfig(d) and
// BenchWorkloadOptions() in bench/bench_util.h, so the benchmark of record
// does not move when the figure benches are retuned.
scoring::MatchConfig MatchFor(int d) {
  scoring::MatchConfig cfg;
  cfg.d = d;
  cfg.node_threshold = 0.40;
  cfg.edge_threshold = 0.05;
  cfg.lambda = 0.5;
  cfg.max_candidates = 4000;
  cfg.max_retrieval = 4000;
  return cfg;
}

query::WorkloadOptions QueryOptions() {
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.25;
  wo.label_noise = 0.5;
  wo.partial_label = 0.5;
  wo.keep_relation = 0.5;
  wo.keep_type = 0.5;
  return wo;
}

enum class Kind { kStarLight, kJoinSaturated, kWarmZipf, kOverloadOpen };

struct Spec {
  const char* name;
  Kind kind;
  int clients;  // closed-loop clients; 0 = open loop
  int d;
  bool use_cache;
};

constexpr Spec kSpecs[] = {
    {"star_light", Kind::kStarLight, 1, 2, false},
    {"join_saturated", Kind::kJoinSaturated, 4, 1, false},
    {"warm_zipf", Kind::kWarmZipf, 4, 2, true},
    {"overload_open", Kind::kOverloadOpen, 0, 2, false},
};

serve::ServiceOptions ServiceOptionsFor(const Spec& spec) {
  serve::ServiceOptions so;
  so.star.match = MatchFor(spec.d);
  if (spec.kind == Kind::kOverloadOpen) {
    so.max_queue = kOverloadQueue;
    so.degrade.enable = true;
  }
  return so;
}

// ---------------------------------------------------------------------------
// Dataset and set-up
// ---------------------------------------------------------------------------

struct Dataset {
  graph::KnowledgeGraph graph;
  std::unique_ptr<graph::LabelIndex> index;
  text::SynonymDictionary synonyms;
  text::TypeOntology ontology;
  text::TfIdfModel tfidf;
  std::unique_ptr<text::SimilarityEnsemble> ensemble;
  double index_s = 0.0;

  explicit Dataset(graph::KnowledgeGraph g)
      : graph(std::move(g)),
        synonyms(text::SynonymDictionary::BuiltIn()),
        ontology(text::TypeOntology::BuiltIn()) {
    WallTimer t;
    index = std::make_unique<graph::LabelIndex>(graph);
    index_s = t.ElapsedSeconds();
    for (graph::NodeId v = 0; v < graph.node_count(); ++v) {
      tfidf.AddDocument(graph.NodeLabel(v));
    }
    tfidf.Finalize();
    text::SimilarityEnsemble::Context ctx;
    ctx.synonyms = &synonyms;
    ctx.ontology = &ontology;
    ctx.tfidf = &tfidf;
    ensemble = std::make_unique<text::SimilarityEnsemble>(ctx);
  }
};

struct SetupResult {
  std::unique_ptr<Dataset> data;
  std::vector<double> total_s, graph_s, index_s;
};

/// Builds the dataset and a QueryService kSetupRepeats times, timing each
/// build; keeps the last dataset.
SetupResult SetUp(const serve::ServiceOptions& so) {
  SetupResult r;
  for (int i = 0; i < kSetupRepeats; ++i) {
    r.data.reset();
    WallTimer total;
    WallTimer tg;
    graph::KnowledgeGraph g = graph::GenerateGraph(graph::DBpediaLike(kNodes));
    const double graph_s = tg.ElapsedSeconds();
    auto d = std::make_unique<Dataset>(std::move(g));
    { serve::QueryService service(d->graph, *d->ensemble, d->index.get(), so); }
    r.total_s.push_back(total.ElapsedSeconds());
    r.graph_s.push_back(graph_s);
    r.index_s.push_back(d->index_s);
    r.data = std::move(d);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<query::QueryGraph> queries;
  /// warm_zipf: queries[i + kZipfInstances] is a reordering of queries[i].
  size_t base_count = 0;
  /// Query index of the i-th request sent.
  std::vector<uint32_t> sequence;
  /// Open loop: due time of the i-th request, seconds from the start.
  std::vector<double> schedule_s;
};

/// The same query with node and edge insertion order permuted and edge
/// endpoints flipped (the reordering the result cache must see through).
query::QueryGraph Reorder(const query::QueryGraph& q, Rng& rng) {
  const int n = q.node_count();
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  std::vector<int> inv(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) inv[static_cast<size_t>(perm[i])] = i;
  query::QueryGraph out;
  for (int i = 0; i < n; ++i) {
    const query::QueryNode& node = q.node(inv[static_cast<size_t>(i)]);
    if (node.wildcard) {
      out.AddWildcardNode(node.type_name);
    } else {
      out.AddNode(node.label, node.type_name);
    }
  }
  std::vector<int> edges(static_cast<size_t>(q.edge_count()));
  std::iota(edges.begin(), edges.end(), 0);
  rng.Shuffle(edges);
  for (const int e : edges) {
    const query::QueryEdge& qe = q.edge(e);
    int u = perm[static_cast<size_t>(qe.u)];
    int v = perm[static_cast<size_t>(qe.v)];
    if (rng.Chance(0.5)) std::swap(u, v);
    out.AddEdge(u, v, qe.wildcard_relation ? "" : qe.relation);
  }
  return out;
}

/// Concatenated seeded permutations of [0, pool): every query is sent
/// once before any is sent twice.
std::vector<uint32_t> Cycles(size_t pool, size_t length, Rng& rng) {
  std::vector<uint32_t> seq;
  std::vector<uint32_t> perm(pool);
  while (seq.size() < length) {
    std::iota(perm.begin(), perm.end(), 0u);
    rng.Shuffle(perm);
    seq.insert(seq.end(), perm.begin(), perm.end());
  }
  seq.resize(length);
  return seq;
}

Inputs MakeInputs(const Spec& spec, const graph::KnowledgeGraph& g,
                  uint64_t seed, double seconds) {
  Inputs in;
  Rng qrng(kQuerySeed);
  query::WorkloadGenerator wg(g, kQuerySeed);
  const query::WorkloadOptions wo = QueryOptions();
  switch (spec.kind) {
    case Kind::kStarLight:
    case Kind::kOverloadOpen: {
      const size_t n = spec.kind == Kind::kStarLight ? kStarPool : kOverloadPool;
      for (size_t i = 0; i < n; ++i) {
        in.queries.push_back(wg.RandomStarQuery(3 + static_cast<int>(i % 3), wo));
      }
      break;
    }
    case Kind::kJoinSaturated:
      // Only queries that decompose into two or more stars.
      while (in.queries.size() < kJoinPool) {
        query::QueryGraph q = wg.RandomGraphQuery(6, 8, wo);
        if (!q.IsStar()) in.queries.push_back(std::move(q));
      }
      break;
    case Kind::kWarmZipf: {
      const auto two = query::MineTemplates(g, 16, 2, 4000, qrng);
      const auto three = query::MineTemplates(g, 16, 3, 4000, qrng);
      size_t t = 0;
      while (in.queries.size() < kZipfInstances) {
        const auto& pool = (t % 2 == 0) ? two : three;
        query::QueryGraph q =
            query::InstantiateTemplate(g, pool[(t / 2) % pool.size()], wo, qrng);
        ++t;
        if (q.node_count() >= 2) in.queries.push_back(std::move(q));
      }
      in.base_count = in.queries.size();
      for (size_t i = 0; i < in.base_count; ++i) {
        in.queries.push_back(Reorder(in.queries[i], qrng));
      }
      break;
    }
  }

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  if (spec.kind == Kind::kOverloadOpen) {
    in.schedule_s = PoissonSchedule(seed + 1, kOverloadRate, seconds);
    in.sequence = Cycles(in.queries.size(), in.schedule_s.size(), rng);
  } else if (spec.kind == Kind::kWarmZipf) {
    // Instance i has popularity rank i (instances come out of the
    // generator in random order); the seed orders the requests and picks
    // which of them carry the reordered twin.
    in.sequence = ZipfSequence(seed + 2, in.base_count, kZipfS, kZipfPass);
    for (uint32_t& q : in.sequence) {
      if (rng.Chance(kReorderShare)) q += static_cast<uint32_t>(in.base_count);
    }
  } else {
    in.sequence = Cycles(in.queries.size(), in.queries.size(), rng);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Running work on the library's thread pool (where the service runs its
// requests, so nested ParallelFor calls behave the same way).
// ---------------------------------------------------------------------------

void OnPool(size_t n, int width, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  int live = width;
  for (int w = 0; w < width; ++w) {
    ThreadPool::Global().Submit([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--live == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return live == 0; });
}

/// Raises every pool worker's nice value to `nice`. On Linux the nice
/// value belongs to the calling thread, not the process. Each task holds
/// its worker until all have started, so every worker runs exactly one.
void RenicePool(int nice) {
  const int n = ThreadPool::Global().workers();
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int left = n;
  for (int w = 0; w < n; ++w) {
    ThreadPool::Global().Submit([&] {
      setpriority(PRIO_PROCESS, 0, nice);
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == n; });
      if (--left == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return left == 0; });
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

bool Same(const Matches& a, const Matches& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping || a[i].score != b[i].score) return false;
  }
  return true;
}

bool IsPrefix(const Matches& full, const Matches& got) {
  if (got.size() > full.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].mapping != full[i].mapping || got[i].score != full[i].score) {
      return false;
    }
  }
  return true;
}

/// Share of the exact top-k scores the answer recovered, as a multiset of
/// scores, so equal-score matches the engine may order either way count.
double RecallAtK(const Matches& got, const Matches& exact) {
  if (exact.empty()) return 1.0;
  std::vector<double> want;
  for (const GraphMatch& m : exact) want.push_back(m.score);
  size_t hit = 0;
  for (const GraphMatch& m : got) {
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

/// `m` (in the node order of `from`) in the node order of `to`, an
/// equivalent reordering, through the canonical ranks both share.
Matches Remap(const Matches& m, const query::QueryGraph& from,
              const query::QueryGraph& to) {
  const std::vector<int> from_rank = query::CanonicalizeQuery(from).node_rank;
  const std::vector<int> to_rank = query::CanonicalizeQuery(to).node_rank;
  Matches out = m;
  std::vector<graph::NodeId> canon(from_rank.size());
  for (GraphMatch& g : out) {
    for (size_t u = 0; u < from_rank.size(); ++u) {
      canon[static_cast<size_t>(from_rank[u])] = g.mapping[u];
    }
    for (size_t u = 0; u < to_rank.size(); ++u) {
      g.mapping[u] = canon[static_cast<size_t>(to_rank[u])];
    }
  }
  return out;
}

/// Exact answers from StarFramework::TopK under the service's nominal
/// options: top-k for every query a run can send, top-(k+1) on demand.
class Oracle {
 public:
  Oracle(const Dataset& d, const core::StarOptions& star, size_t queries)
      : d_(d), star_(star), topk_(queries), next_(queries) {}

  /// Computes top-k for queries [0, count) on the pool, 4 at a time.
  void Precompute(const Inputs& in, size_t count) {
    std::vector<size_t> todo;
    for (size_t i = 0; i < count; ++i) todo.push_back(i);
    Fill(in, todo, false);
  }

  /// Computes the listed answers that are still missing.
  void Fill(const Inputs& in, const std::vector<size_t>& todo, bool next) {
    auto& store = next ? next_ : topk_;
    std::vector<size_t> missing;
    for (const size_t i : todo) {
      if (!store[i].has_value()) missing.push_back(i);
    }
    OnPool(missing.size(), 4, [&](size_t j) {
      const size_t qi = missing[j];
      core::StarFramework fw(d_.graph, *d_.ensemble, d_.index.get(), star_);
      store[qi] = fw.TopK(in.queries[qi], next ? kK + 1 : kK);
    });
  }

  const Matches* TopK(size_t qi) const {
    return topk_[qi] ? &*topk_[qi] : nullptr;
  }
  const Matches* Next(size_t qi) const {
    return next_[qi] ? &*next_[qi] : nullptr;
  }

 private:
  const Dataset& d_;
  core::StarOptions star_;
  std::vector<std::optional<Matches>> topk_;
  std::vector<std::optional<Matches>> next_;
};

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

struct Sample {
  uint32_t query = 0;
  uint16_t pass = 0;
  // Times are from the start of the sample's pass.
  double due_ms = 0.0;        // scheduled send (open) or actual send (closed)
  double sent_ms = 0.0;       // Submit called
  double submitted_ms = 0.0;  // Submit returned
  double done_ms = 0.0;       // response in hand
  double gap_ms = 0.0;        // closed loop: previous response -> this send
  StatusCode code = StatusCode::kOk;
  bool cache_hit = false;
  bool coalesced = false;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  core::QualityCertificate certificate;
  Matches matches;

  double latency_ms() const { return done_ms - due_ms; }
};

struct RunResult {
  std::vector<Sample> samples;  // in send order, pass after pass
  std::vector<double> pass_wall_s;  // first due send -> last response
  // Summed over passes (only the fields the metrics read).
  serve::ServiceStats stats;
  serve::CacheStats cache;
  serve::StarCacheStats star_cache;
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void Fill(Sample& s, serve::QueryResponse&& r) {
  s.code = r.status.code();
  s.cache_hit = r.cache_hit;
  s.coalesced = r.coalesced;
  s.queue_ms = r.queue_ms;
  s.exec_ms = r.exec_ms;
  s.certificate = r.certificate;
  s.matches = std::move(r.matches);
}

serve::QueryRequest MakeRequest(const Spec& spec, const Inputs& in,
                                uint32_t qi) {
  serve::QueryRequest req;
  req.query = in.queries[qi];
  req.k = kK;
  req.use_cache = spec.use_cache;
  if (spec.kind == Kind::kOverloadOpen) {
    req.deadline = Deadline::AfterMillis(kOverloadDeadlineMs);
  }
  return req;
}

/// Ends a pass: its wall time (first due send to last response) and the
/// service's counters, summed over passes.
void FinishPass(RunResult& r, size_t first, const serve::QueryService& service) {
  double last = 0.0;
  for (size_t i = first; i < r.samples.size(); ++i) {
    last = std::max(last, r.samples[i].done_ms);
  }
  r.pass_wall_s.push_back(last / 1000.0);
  const serve::ServiceStats st = service.stats();
  r.stats.submitted += st.submitted;
  r.stats.rejected_overload += st.rejected_overload;
  r.stats.deadline_exceeded += st.deadline_exceeded;
  r.stats.coalesced_followers += st.coalesced_followers;
  for (size_t l = 0; l < st.degraded_at_level.size(); ++l) {
    r.stats.degraded_at_level[l] += st.degraded_at_level[l];
  }
  const serve::CacheStats c = service.cache_stats();
  r.cache.hits += c.hits;
  r.cache.misses += c.misses;
  r.cache.evictions += c.evictions;
  const serve::StarCacheStats sc = service.star_cache_stats();
  r.star_cache.candidate_hits += sc.candidate_hits;
  r.star_cache.candidate_misses += sc.candidate_misses;
  r.star_cache.toplist_hits += sc.toplist_hits;
  r.star_cache.toplist_misses += sc.toplist_misses;
}

/// Passes over the request sequence, each on a fresh service: `clients`
/// threads each send their next request as soon as the last one is
/// answered. With `whole_passes`, every pass sends the whole sequence and
/// another pass starts while one as long as the last still ends within
/// `seconds`; otherwise one pass stops sending after `seconds` (the
/// warm-up).
RunResult RunClosed(const Dataset& d, const Spec& spec, const Inputs& in,
                    int clients, double seconds, bool whole_passes) {
  RunResult r;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  do {
    serve::QueryService service(d.graph, *d.ensemble, d.index.get(),
                                ServiceOptionsFor(spec));
    const uint16_t pass = static_cast<uint16_t>(r.pass_wall_s.size());
    std::atomic<size_t> next{0};
    std::vector<std::vector<std::pair<size_t, Sample>>> per_client(
        static_cast<size_t>(clients));
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& out = per_client[static_cast<size_t>(c)];
        double last_done = 0.0;
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= in.sequence.size()) return;
          if (!whole_passes && Clock::now() >= end) return;
          const uint32_t qi = in.sequence[i];
          serve::QueryRequest req = MakeRequest(spec, in, qi);
          Sample s;
          s.query = qi;
          s.pass = pass;
          s.sent_ms = s.due_ms = MsSince(t0);
          s.gap_ms = last_done > 0.0 ? s.sent_ms - last_done : 0.0;
          std::future<serve::QueryResponse> fut = service.Submit(std::move(req));
          s.submitted_ms = MsSince(t0);
          serve::QueryResponse resp = fut.get();
          s.done_ms = last_done = MsSince(t0);
          Fill(s, std::move(resp));
          out.emplace_back(i, std::move(s));
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::vector<std::pair<size_t, Sample>> all;
    for (auto& v : per_client) {
      for (auto& p : v) all.push_back(std::move(p));
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const size_t first = r.samples.size();
    for (auto& p : all) r.samples.push_back(std::move(p.second));
    FinishPass(r, first, service);
  } while (whole_passes &&
           Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(r.pass_wall_s.back())) <=
               end);
  return r;
}

/// One generator thread sends each request at its scheduled time with
/// sleep_until (so delays never accumulate) and hands the future to a
/// waiter. The service dispatches in admission order with at most
/// max_inflight (4) running, so the oldest outstanding requests are the
/// running ones; with more waiters than that, each taking futures in send
/// order, every completion is stamped as it happens.
RunResult RunOpen(const Dataset& d, const Spec& spec, const Inputs& in) {
  serve::QueryService service(d.graph, *d.ensemble, d.index.get(),
                              ServiceOptionsFor(spec));
  const size_t n = in.schedule_s.size();
  RunResult r;
  r.samples.resize(n);
  std::vector<std::future<serve::QueryResponse>> futures(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> handoff;
  bool sent_all = false;
  const Clock::time_point t0 = Clock::now();

  std::vector<std::thread> waiters;
  for (int w = 0; w < kOpenWaiters; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !handoff.empty() || sent_all; });
          if (handoff.empty()) return;
          i = handoff.front();
          handoff.pop_front();
        }
        serve::QueryResponse resp = futures[i].get();
        r.samples[i].done_ms = MsSince(t0);
        Fill(r.samples[i], std::move(resp));
      }
    });
  }

  for (size_t i = 0; i < n; ++i) {
    const uint32_t qi = in.sequence[i];
    serve::QueryRequest req = MakeRequest(spec, in, qi);
    Sample& s = r.samples[i];
    s.query = qi;
    s.due_ms = in.schedule_s[i] * 1000.0;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(in.schedule_s[i])));
    s.sent_ms = MsSince(t0);
    // The deadline is counted from the due time, like the latency.
    req.deadline = Deadline::AfterMillis(kOverloadDeadlineMs -
                                         (s.sent_ms - s.due_ms));
    std::future<serve::QueryResponse> fut = service.Submit(std::move(req));
    s.submitted_ms = MsSince(t0);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      s.done_ms = s.submitted_ms;  // rejected at admission
      Fill(s, fut.get());
      continue;
    }
    futures[i] = std::move(fut);
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sent_all = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  FinishPass(r, 0, service);
  return r;
}

RunResult RunOnce(const Dataset& d, const Spec& spec, const Inputs& in,
                  double seconds) {
  return spec.clients > 0
             ? RunClosed(d, spec, in, spec.clients, seconds, true)
             : RunOpen(d, spec, in);
}

// ---------------------------------------------------------------------------
// Grading a run
// ---------------------------------------------------------------------------

struct Grade {
  size_t sent = 0;
  size_t ok_correct = 0;
  size_t rejected = 0;
  size_t expired = 0;
  size_t wrong = 0;       // any check failed, or an unexpected status
  double recall_sum = 0.0;
  size_t recall_n = 0;
  std::vector<double> latency_ms;  // Ok and correct responses, sorted
  std::vector<double> goodput;     // per pass
};

class Grader {
 public:
  Grader(const Inputs& in, Oracle& oracle) : in_(in), oracle_(oracle) {}

  /// Grades every sample; computes oracle answers a check turns out to
  /// need (reordered twins, top-(k+1)) on the pool first.
  Grade Run(const RunResult& r) {
    std::vector<size_t> twins, next;
    for (const Sample& s : r.samples) Needs(s, &twins, &next);
    oracle_.Fill(in_, twins, false);
    oracle_.Fill(in_, next, true);
    Grade g;
    std::vector<size_t> ok(r.pass_wall_s.size(), 0);
    for (const Sample& s : r.samples) ok[s.pass] += Add(s, &g) ? 1 : 0;
    for (size_t p = 0; p < ok.size(); ++p) {
      g.goodput.push_back(static_cast<double>(ok[p]) / r.pass_wall_s[p]);
    }
    std::sort(g.latency_ms.begin(), g.latency_ms.end());
    return g;
  }

  /// True when `got` is an acceptable exact answer for query qi: the
  /// query's own TopK, or (warm_zipf) its reordered twin's remapped.
  bool Exact(uint32_t qi, const Matches& got) const {
    const Matches* own = oracle_.TopK(qi);
    if (own != nullptr && Same(got, *own)) return true;
    if (in_.base_count == 0) return false;
    const size_t twin = Twin(qi);
    const Matches* other = oracle_.TopK(twin);
    return other != nullptr &&
           Same(got, Remap(*other, in_.queries[twin], in_.queries[qi]));
  }

 private:
  size_t Twin(size_t qi) const {
    return qi < in_.base_count ? qi + in_.base_count : qi - in_.base_count;
  }

  void Needs(const Sample& s, std::vector<size_t>* twins,
             std::vector<size_t>* next) const {
    if (s.code != StatusCode::kOk) return;
    if (in_.base_count > 0 && !Exact(s.query, s.matches)) {
      twins->push_back(s.query);
      twins->push_back(Twin(s.query));
    }
    if (s.certificate.degradation_level > 0 &&
        s.certificate.guaranteed_prefix >= kK) {
      next->push_back(s.query);
    }
  }

  /// The certificate's promises, graded against the exact answer: the
  /// guaranteed prefix is exact, the measured recall reaches prefix / k,
  /// and the bound covers the true score at rank prefix + 1.
  bool CertificateHolds(const Sample& s, const Matches& exact) const {
    const size_t p = s.certificate.guaranteed_prefix;
    if (p > s.matches.size() || p > exact.size()) return false;
    for (size_t j = 0; j < p; ++j) {
      if (s.matches[j].mapping != exact[j].mapping ||
          s.matches[j].score != exact[j].score) {
        return false;
      }
    }
    const double floor = static_cast<double>(p) /
                         static_cast<double>(std::max<size_t>(1, exact.size()));
    if (RecallAtK(s.matches, exact) + kEps < floor) return false;
    double truth = -std::numeric_limits<double>::infinity();
    if (p < exact.size()) {
      truth = exact[p].score;
    } else if (const Matches* nx = oracle_.Next(s.query);
               nx != nullptr && nx->size() > p) {
      truth = (*nx)[p].score;
    }
    return s.certificate.score_bound >= truth - kEps;
  }

  /// Tallies one response; true when it was Ok and correct.
  bool Add(const Sample& s, Grade* g) const {
    ++g->sent;
    const Matches* exact = oracle_.TopK(s.query);
    const int level = s.certificate.degradation_level;
    switch (s.code) {
      case StatusCode::kOverloaded:
        ++g->rejected;
        return false;
      case StatusCode::kDeadlineExceeded: {
        const bool ok = level == 0 ? exact != nullptr && IsPrefix(*exact, s.matches)
                                   : exact != nullptr && CertificateHolds(s, *exact);
        ok ? ++g->expired : ++g->wrong;
        return false;
      }
      case StatusCode::kOk: {
        const bool ok = level == 0
                            ? Exact(s.query, s.matches)
                            : exact != nullptr && CertificateHolds(s, *exact);
        if (!ok) {
          ++g->wrong;
          return false;
        }
        ++g->ok_correct;
        g->latency_ms.push_back(s.latency_ms());
        // A level-0 answer passed Exact(): it is the exact top-k (a
        // reordered twin's may differ from its base's, see Exact()).
        g->recall_sum += level == 0 ? 1.0 : RecallAtK(s.matches, *exact);
        ++g->recall_n;
        return true;
      }
      default:
        ++g->wrong;
        return false;
    }
  }

  const Inputs& in_;
  Oracle& oracle_;
};

// ---------------------------------------------------------------------------
// Traced replay: the calls StarFramework::TopK makes, with a span around
// each layer (framework.cc is the reference; keep the two in step).
// ---------------------------------------------------------------------------

/// A star stream whose Next() and UpperBound() calls are spans. The first
/// call runs the star's Initialize, so it is the init span.
class TimedStream final : public core::CoveredMatchIterator {
 public:
  explicit TimedStream(std::unique_ptr<core::CachedStarStream> s)
      : s_(std::move(s)) {}
  std::optional<GraphMatch> Next() override {
    Span span(Name());
    return s_->Next();
  }
  double UpperBound() const override {
    Span span(Name());
    return s_->UpperBound();
  }
  uint64_t covered_mask() const override { return s_->covered_mask(); }
  bool cancelled() const override { return s_->cancelled(); }
  const core::CachedStarStream& stream() const { return *s_; }

 private:
  const char* Name() const {
    const char* name = started_ ? "core.star_search.pull" : "core.star_search.init";
    started_ = true;
    return name;
  }
  std::unique_ptr<core::CachedStarStream> s_;
  mutable bool started_ = false;
};

/// The result pipeline above the star streams: a RankJoin for a general
/// query, the single star stream itself for a star query. Spans its calls,
/// so its self time is the join's own work.
class TimedPipeline final : public core::CoveredMatchIterator {
 public:
  explicit TimedPipeline(std::unique_ptr<core::CoveredMatchIterator> p)
      : p_(std::move(p)) {}
  std::optional<GraphMatch> Next() override {
    Span span("core.rank_join");
    return p_->Next();
  }
  double UpperBound() const override {
    Span span("core.rank_join");
    return p_->UpperBound();
  }
  uint64_t covered_mask() const override { return p_->covered_mask(); }
  bool cancelled() const override { return p_->cancelled(); }

 private:
  std::unique_ptr<core::CoveredMatchIterator> p_;
};

struct ReplayOut {
  Matches matches;
  CallTree tree{"replay"};
  scoring::RetrievalStats retrieval;
  text::KernelStats kernel;
  size_t candidates_kept = 0;
  core::StarSearchStats search;
  size_t total_depth = 0;
  size_t joins = 0;
  size_t join_emitted = 0;
  size_t join_formed = 0;
};

ReplayOut Replay(const Dataset& d, const core::StarOptions& nominal,
                 const serve::DegradePolicy& policy, int level,
                 const query::QueryGraph& q, size_t k) {
  ReplayOut out;
  core::StarOptions opt = nominal;
  serve::ApplyDegradation(policy, level, &opt);
  tls_tree = &out.tree;
  const double start = NowUs();
  {
    common::MonotonicArena arena;
    scoring::QueryScorer scorer(d.graph, q, *d.ensemble, opt.match,
                                d.index.get(), &arena);
    std::vector<const scoring::CandidateList*> lists;
    const auto candidates = [&](int u) {
      Span span("scoring.candidates");
      const scoring::CandidateList* l = &scorer.Candidates(u);
      if (std::find(lists.begin(), lists.end(), l) == lists.end()) {
        lists.push_back(l);
      }
    };
    // Untyped wildcards build a list only as a pivot, as in StarSearch.
    const auto untyped = [&](int u) {
      return q.node(u).wildcard && q.node(u).type_name.empty();
    };
    for (int u = 0; u < q.node_count(); ++u) {
      if (!untyped(u)) candidates(u);
    }
    std::vector<query::StarQuery> stars;
    {
      Span span("core.decomposition");
      stars = core::DecomposeQuery(q, opt.decomposition, &scorer);
    }
    for (const query::StarQuery& s : stars) {
      if (untyped(s.pivot)) candidates(s.pivot);
    }
    const bool single = stars.size() == 1;
    std::vector<const TimedStream*> streams;
    std::vector<const core::RankJoin*> joins;
    std::unique_ptr<core::CoveredMatchIterator> pipeline;
    for (size_t i = 0; i < stars.size(); ++i) {
      core::StarSearch::Options so;
      so.strategy = opt.strategy;
      so.k_hint = single ? k : 0;
      if (!single) {
        Span span("core.decomposition");
        so.node_weights = core::AlphaNodeWeights(q, stars, i, opt.alpha);
      }
      auto stream = std::make_unique<TimedStream>(
          std::make_unique<core::CachedStarStream>(scorer, stars[i],
                                                   std::move(so), nullptr,
                                                   std::string(), 0));
      streams.push_back(stream.get());
      if (pipeline == nullptr) {
        pipeline = std::move(stream);
      } else {
        auto join = std::make_unique<core::RankJoin>(
            std::move(pipeline), std::move(stream),
            opt.match.enforce_injective, nullptr, scorer.transient_resource());
        joins.push_back(join.get());
        pipeline = std::make_unique<TimedPipeline>(std::move(join));
      }
    }
    if (single) pipeline = std::make_unique<TimedPipeline>(std::move(pipeline));
    while (out.matches.size() < k) {
      std::optional<GraphMatch> m = pipeline->Next();
      if (!m.has_value()) break;
      out.matches.push_back(std::move(*m));
    }

    core::FrameworkStats stats;
    double residual = single && out.matches.size() == k
                          ? out.matches.back().score
                          : pipeline->UpperBound();
    if (!out.matches.empty()) residual = std::min(residual, out.matches.back().score);
    stats.residual_bound = residual;
    stats.node_candidates = core::CollectNodeCandidateInfo(q, scorer);
    stats.num_stars = stars.size();
    for (const TimedStream* s : streams) {
      stats.star_depths.push_back(s->stream().depth());
      stats.total_depth += s->stream().depth();
      stats.search.Merge(s->stream().stats());
    }
    {
      Span span("serve.certificate");
      (void)serve::BuildCertificate(q, nominal, opt, level, stats, out.matches);
    }
    out.retrieval = scorer.retrieval_stats();
    out.kernel = scorer.kernel_stats();
    for (const scoring::CandidateList* l : lists) out.candidates_kept += l->size();
    out.search = stats.search;
    out.total_depth = stats.total_depth;
    out.joins = joins.size();
    for (const core::RankJoin* j : joins) out.join_formed += j->stats().results_formed;
    if (!joins.empty()) out.join_emitted = out.matches.size();
  }
  out.tree.Finish(start, NowUs());
  tls_tree = nullptr;
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
  return s;
}

std::string Escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string CompilerString() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string PercentileJson(const Percentile& p) {
  return "{\"value\": " + Num(p.value) + ", \"samples\": " +
         std::to_string(p.samples) + ", \"beyond\": " +
         std::to_string(p.beyond) + ", \"supported\": " +
         (p.supported ? "true" : "false") + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

struct ReplayTally {
  size_t eligible = 0;
  size_t replayed = 0;
  size_t mismatches = 0;
  std::vector<Metric> metrics;
};

/// Replays the first pass's requests that executed fresh and were
/// answered Ok, for at most `budget_s` of wall time, on a pool worker, and
/// checks each replay against the service's answer and, at level 0, the
/// oracle.
ReplayTally ReplayRun(const Dataset& d, const Spec& spec, const Inputs& in,
                      const RunResult& run, const Grader& grader,
                      double budget_s, std::FILE* trace_file) {
  const serve::ServiceOptions so = ServiceOptionsFor(spec);
  std::vector<size_t> todo;
  for (size_t i = 0; i < run.samples.size(); ++i) {
    const Sample& s = run.samples[i];
    // Later passes repeat the first one's requests.
    if (s.pass == 0 && s.code == StatusCode::kOk && !s.cache_hit &&
        !s.coalesced) {
      todo.push_back(i);
    }
  }
  ReplayTally t;
  t.eligible = todo.size();
  std::vector<std::optional<ReplayOut>> outs(todo.size());
  std::vector<uint8_t> bad(todo.size(), 0);
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  // One replay at a time: StarSearchStats' CPU time is process-wide, so
  // concurrent replays would count each other's work in init_cpu_ms.
  OnPool(todo.size(), 1, [&](size_t j) {
           if (Clock::now() >= stop) return;
           const Sample& s = run.samples[todo[j]];
           ReplayOut o = Replay(d, so.star, so.degrade,
                                s.certificate.degradation_level,
                                in.queries[s.query], kK);
           bool ok = Same(o.matches, s.matches);
           if (s.certificate.degradation_level == 0) {
             ok = ok && grader.Exact(s.query, o.matches);
           }
           bad[j] = ok ? 0 : 1;
           outs[j] = std::move(o);
         });

  double wall = 0, covered = 0, exec = 0, cand = 0, decomp = 0, init = 0,
         pull = 0, join = 0, cert = 0;
  double nodes_scored = 0, kept = 0, blocks = 0, blocks_skipped = 0,
         pairs = 0, early = 0, cpu = 0, init_wall = 0, pivots = 0,
         enumerators = 0, messages = 0, depth = 0, emitted = 0, formed = 0;
  for (size_t j = 0; j < outs.size(); ++j) {
    if (!outs[j]) continue;
    const ReplayOut& o = *outs[j];
    const Sample& s = run.samples[todo[j]];
    ++t.replayed;
    t.mismatches += bad[j];
    const double root = o.tree.nodes()[0].total_us;
    wall += root;
    covered += root - o.tree.SelfUs(0);
    exec += s.exec_ms * 1000.0;
    cand += o.tree.SelfUsOf("scoring.candidates");
    decomp += o.tree.SelfUsOf("core.decomposition");
    init += o.tree.SelfUsOf("core.star_search.init");
    pull += o.tree.SelfUsOf("core.star_search.pull");
    join += o.tree.SelfUsOf("core.rank_join");
    cert += o.tree.SelfUsOf("serve.certificate");
    nodes_scored += static_cast<double>(o.retrieval.nodes_scored);
    kept += static_cast<double>(o.candidates_kept);
    blocks += static_cast<double>(o.retrieval.blocks_considered);
    blocks_skipped += static_cast<double>(o.retrieval.blocks_skipped);
    pairs += static_cast<double>(o.kernel.pairs);
    early += static_cast<double>(o.kernel.early_exits);
    cpu += o.search.init_cpu_ms;
    init_wall += o.search.init_wall_ms;
    pivots += static_cast<double>(o.search.pivot_candidates);
    enumerators += static_cast<double>(o.search.enumerators_built);
    messages += static_cast<double>(o.search.messages_sent);
    depth += static_cast<double>(o.total_depth);
    emitted += static_cast<double>(o.join_emitted);
    formed += static_cast<double>(o.join_formed);
    if (trace_file != nullptr) {
      const auto& nodes = o.tree.nodes();
      for (size_t n = 0; n < nodes.size(); ++n) {
        std::fprintf(trace_file,
                     "{\"request\": %zu, \"span\": %zu, \"parent\": %d, "
                     "\"name\": \"%s\", \"start_us\": %s, \"end_us\": %s, "
                     "\"total_us\": %s, \"self_us\": %s, \"calls\": %llu}\n",
                     todo[j], n, nodes[n].parent, nodes[n].name,
                     Num(nodes[n].first_start_us).c_str(),
                     Num(nodes[n].last_end_us).c_str(),
                     Num(nodes[n].total_us).c_str(),
                     Num(o.tree.SelfUs(n)).c_str(),
                     static_cast<unsigned long long>(nodes[n].calls));
      }
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(t.replayed));
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  t.metrics = {
      {"serve.certificate_us", cert / n, "us"},
      {"scoring.candidates_ms", cand / n / 1000.0, "ms"},
      {"scoring.nodes_scored", nodes_scored / n, "count"},
      {"scoring.kept_per_scored", ratio(kept, nodes_scored), "ratio"},
      {"scoring.blocks_skipped_fraction", ratio(blocks_skipped, blocks), "ratio"},
      {"scoring.fn_early_exit_fraction", ratio(early, pairs), "ratio"},
      {"core.decomposition_ms", decomp / n / 1000.0, "ms"},
      {"core.star_search.init_ms", init / n / 1000.0, "ms"},
      {"core.star_search.pull_ms", pull / n / 1000.0, "ms"},
      {"core.star_search.init_cpu_per_wall", ratio(cpu, init_wall), "ratio"},
      {"core.star_search.enumerators_per_pivot", ratio(enumerators, pivots), "ratio"},
      {"core.star_search.messages_sent", messages / n, "count"},
      {"core.rank_join.self_ms", join / n / 1000.0, "ms"},
      {"core.rank_join.total_depth", depth / n, "count"},
      {"core.rank_join.emitted_per_formed", ratio(emitted, formed), "ratio"},
      {"harness.traced_coverage", ratio(covered, wall), "ratio"},
      {"harness.replica_exec_ratio", ratio(wall, exec), "ratio"},
  };
  return t;
}

/// Writes the traced run's request spans: request > serve.submit, serve.wait.
void WriteRequestSpans(std::FILE* f, const RunResult& run) {
  for (size_t i = 0; i < run.samples.size(); ++i) {
    const Sample& s = run.samples[i];
    std::fprintf(f,
                 "{\"request\": %zu, \"span\": 0, \"parent\": -1, \"name\": "
                 "\"request\", \"start_ms\": %s, \"end_ms\": %s}\n"
                 "{\"request\": %zu, \"span\": 1, \"parent\": 0, \"name\": "
                 "\"serve.submit\", \"start_ms\": %s, \"end_ms\": %s}\n"
                 "{\"request\": %zu, \"span\": 2, \"parent\": 0, \"name\": "
                 "\"serve.wait\", \"start_ms\": %s, \"end_ms\": %s, "
                 "\"queue_ms\": %s, \"exec_ms\": %s, \"cache_hit\": %s, "
                 "\"coalesced\": %s, \"level\": %d, \"guaranteed_prefix\": %zu}\n",
                 i, Num(s.due_ms).c_str(), Num(s.done_ms).c_str(), i,
                 Num(s.sent_ms).c_str(), Num(s.submitted_ms).c_str(), i,
                 Num(s.submitted_ms).c_str(), Num(s.done_ms).c_str(),
                 Num(s.queue_ms).c_str(), Num(s.exec_ms).c_str(),
                 s.cache_hit ? "true" : "false", s.coalesced ? "true" : "false",
                 s.certificate.degradation_level,
                 s.certificate.guaranteed_prefix);
  }
}

double Share(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

std::vector<Metric> ServeMetrics(const RunResult& run) {
  std::vector<double> submit_us, handoff_us, queue, exec;
  for (const Sample& s : run.samples) {
    submit_us.push_back((s.submitted_ms - s.sent_ms) * 1000.0);
    if (s.code != StatusCode::kOk) continue;
    handoff_us.push_back(
        (s.done_ms - s.sent_ms - s.queue_ms - s.exec_ms) * 1000.0);
    queue.push_back(s.queue_ms);
    exec.push_back(s.exec_ms);
  }
  for (auto* v : {&submit_us, &handoff_us, &queue, &exec}) {
    std::sort(v->begin(), v->end());
  }
  const serve::ServiceStats& st = run.stats;
  uint64_t admitted = 0;
  for (const uint64_t c : st.degraded_at_level) admitted += c;
  const serve::StarCacheStats& sc = run.star_cache;
  std::vector<Metric> m = {
      {"serve.submit_us", NearestRank(submit_us, 0.5).value, "us"},
      {"serve.handoff_us", NearestRank(handoff_us, 0.5).value, "us"},
      {"serve.queue_ms.p50", NearestRank(queue, 0.5).value, "ms"},
      {"serve.queue_ms.p95", NearestRank(queue, 0.95).value, "ms"},
      {"serve.exec_ms.p50", NearestRank(exec, 0.5).value, "ms"},
      {"serve.result_cache.hit_rate", run.cache.hit_rate(), "ratio"},
      {"serve.result_cache.evictions_per_kreq",
       1000.0 * Share(run.cache.evictions, st.submitted), "count"},
      {"serve.star_cache.candidate_hit_rate",
       Share(sc.candidate_hits, sc.candidate_hits + sc.candidate_misses), "ratio"},
      {"serve.star_cache.toplist_hit_rate",
       Share(sc.toplist_hits, sc.toplist_hits + sc.toplist_misses), "ratio"},
      {"serve.coalesced_fraction", Share(st.coalesced_followers, st.submitted), "ratio"},
      {"serve.rejected_fraction", Share(st.rejected_overload, st.submitted), "ratio"},
      {"serve.deadline_fraction", Share(st.deadline_exceeded, st.submitted), "ratio"},
  };
  for (size_t l = 0; l < st.degraded_at_level.size(); ++l) {
    m.push_back({"serve.degrade.level_share." + std::to_string(l),
                 Share(st.degraded_at_level[l], admitted), "ratio"});
  }
  return m;
}

/// p99 of how late the generator sent: against the schedule (open loop),
/// or from a client's previous response to its next send (closed loop).
double GeneratorLateP99(const RunResult& run, bool open) {
  std::vector<double> late;
  for (const Sample& s : run.samples) {
    late.push_back(open ? s.sent_ms - s.due_ms : s.gap_ms);
  }
  std::sort(late.begin(), late.end());
  return NearestRank(late, 0.99).value;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ThreadPool::Global().EnsureWorkers(4);
  // Open loop: the pool workers, which do the request work, run at nice
  // 10, so the generator and the waiters, asleep between sends and
  // completions, get a core as soon as they wake instead of waiting
  // behind four busy workers.
  if (spec->clients == 0) RenicePool(10);
  const serve::ServiceOptions so = ServiceOptionsFor(*spec);

  SetupResult setup = SetUp(so);
  const double setup_rss_mb = PeakRssMb();
  const Dataset& d = *setup.data;
  std::fprintf(stderr, "[perfbench] %s seed=%llu: set-up %.3fs (median of %d)\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               Median(setup.total_s), kSetupRepeats);

  const Inputs in = MakeInputs(*spec, d.graph, args.seed, args.seconds);
  Oracle oracle(d, so.star, in.queries.size());
  WallTimer oracle_timer;
  oracle.Precompute(in, in.base_count > 0 ? in.base_count : in.queries.size());
  std::fprintf(stderr, "[perfbench] %zu queries, oracle %.2fs\n",
               in.queries.size(), oracle_timer.ElapsedSeconds());

  // Untimed warm-up on a throwaway service: pool threads, their request
  // arenas and the allocator reach steady state before the timed run.
  RunClosed(d, *spec, in, spec->clients == 0 ? 4 : spec->clients,
            kWarmupSeconds, false);

  Grader grader(in, oracle);
  const RunResult run = RunOnce(d, *spec, in, args.seconds);
  const double peak_rss_mb = PeakRssMb();
  const Grade g = grader.Run(run);
  const bool open = spec->clients == 0;
  const double late_p99 = GeneratorLateP99(run, open);
  const Percentile p50 = NearestRank(g.latency_ms, 0.50);
  const Percentile p95 = NearestRank(g.latency_ms, 0.95);
  const Percentile p99 = NearestRank(g.latency_ms, 0.99);
  const bool on_schedule = !open || late_p99 <= kLatenessBound * p50.value;
  const double goodput = Median(g.goodput);
  std::fprintf(stderr, "[perfbench] %zu passes, goodput %.1f/s (median), "
               "peak rss %.0f MB\n", g.goodput.size(), goodput, peak_rss_mb);

  std::vector<Metric> metrics;
  // Lateness is the harness's own fault, not a wrong answer: it marks the
  // run off schedule in the record (compare mode leaves such runs out)
  // and, since latency counts from the due time, already shows in it.
  bool correct = g.wrong == 0 && p50.samples > 0;
  std::string replay_json = "null";
  if (args.trace == 0) {
    metrics = {
        {"goodput_qps", goodput, "1/s"},
        {"latency_p50_ms", p50.value, "ms"},
        {"latency_p95_ms", p95.value, "ms"},
        {"answered_fraction", Share(g.ok_correct, g.sent), "ratio"},
        {"recall_at_k", g.recall_n ? g.recall_sum / g.recall_n : 0.0, "ratio"},
        {"setup_s", Median(setup.total_s), "s"},
        {"setup_rss_mb", setup_rss_mb, "MB"},
    };
  } else {
    std::FILE* f = args.trace_out.empty()
                       ? nullptr
                       : std::fopen(args.trace_out.c_str(), "w");
    const RunResult traced = RunOnce(d, *spec, in, args.seconds);
    const Grade tg = grader.Run(traced);
    if (f != nullptr) WriteRequestSpans(f, traced);
    const ReplayTally rt =
        ReplayRun(d, *spec, in, traced, grader, args.seconds, f);
    if (f != nullptr) std::fclose(f);
    std::vector<double> canon_us;
    for (const Sample& s : traced.samples) {
      const double t0 = NowUs();
      const query::CanonicalQuery c = query::CanonicalizeQuery(in.queries[s.query]);
      canon_us.push_back(NowUs() - t0);
      (void)c;
    }
    metrics = ServeMetrics(traced);
    metrics.push_back({"query.canonicalize_us", Median(canon_us), "us"});
    metrics.insert(metrics.end(), rt.metrics.begin(), rt.metrics.end());
    graph::GraphFootprint gf = d.graph.Footprint();
    graph::IndexFootprint xf = d.index->MemoryFootprint();
    metrics.push_back({"graph.build_s", Median(setup.graph_s), "s"});
    metrics.push_back({"graph.index_build_s", Median(setup.index_s), "s"});
    metrics.push_back({"graph.footprint_mb",
                       static_cast<double>(gf.total() + xf.total()) / 1e6, "MB"});
    metrics.push_back({"serve.peak_rss_mb", PeakRssMb(), "MB"});
    metrics.push_back(
        {"harness.tracing_overhead", Median(tg.goodput) / goodput, "ratio"});
    metrics.push_back(
        {"harness.generator_late_ms", GeneratorLateP99(traced, open), "ms"});
    correct = correct && tg.wrong == 0 && rt.mismatches == 0 && rt.replayed > 0;
    replay_json = "{\"eligible\": " + std::to_string(rt.eligible) +
                  ", \"replayed\": " + std::to_string(rt.replayed) +
                  ", \"mismatches\": " + std::to_string(rt.mismatches) +
                  ", \"traced_wrong\": " + std::to_string(tg.wrong) + "}";
  }

  // warm_zipf: reordered twins whose own exact answers the checks needed,
  // and how many of those score differently from their base's.
  size_t twins_checked = 0, twins_differ = 0;
  for (size_t i = 0; i < in.base_count; ++i) {
    const Matches* a = oracle.TopK(i);
    const Matches* b = oracle.TopK(i + in.base_count);
    if (a == nullptr || b == nullptr) continue;
    ++twins_checked;
    bool same = a->size() == b->size();
    for (size_t j = 0; same && j < a->size(); ++j) {
      same = (*a)[j].score == (*b)[j].score;
    }
    twins_differ += same ? 0 : 1;
  }

  const char* threads_env = std::getenv("STAR_THREADS");
  std::printf(
      "{\"perfbench_record\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"host\": {\"hardware_threads\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\"}, "
      "\"star_threads\": \"%s\", \"params\": {\"nodes\": %zu, \"edges\": %zu, "
      "\"k\": %zu, \"d\": %d, \"clients\": %d, \"use_cache\": %s, "
      "\"queries\": %zu, \"rate_qps\": %s, \"max_queue\": %zu, "
      "\"deadline_ms\": %s}, \"sent\": %zu, \"ok_correct\": %zu, "
      "\"rejected\": %zu, \"expired\": %zu, \"wrong\": %zu, "
      "\"latency_ms\": {\"p50\": %s, \"p95\": %s, \"p99\": %s}, "
      "\"goodput_per_pass\": [%s], \"peak_rss_mb\": %s, "
      "\"generator_late_p99_ms\": %s, \"on_schedule\": %s, "
      "\"setup_s\": [%s], \"replay\": %s, \"twins_checked\": %zu, "
      "\"twins_scores_differ\": %zu}}\n",
      spec->name, static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace,
      std::thread::hardware_concurrency(), CompilerString().c_str(),
      PERFBENCH_BUILD_TYPE, Escape(PERFBENCH_BUILD_FLAGS).c_str(),
      threads_env ? Escape(threads_env).c_str() : "", d.graph.node_count(),
      d.graph.edge_count(), kK, spec->d, spec->clients,
      spec->use_cache ? "true" : "false", in.queries.size(),
      Num(open ? kOverloadRate : 0.0).c_str(), so.max_queue,
      Num(open ? kOverloadDeadlineMs : 0.0).c_str(), g.sent, g.ok_correct,
      g.rejected, g.expired, g.wrong, PercentileJson(p50).c_str(),
      PercentileJson(p95).c_str(), PercentileJson(p99).c_str(),
      NumList(g.goodput).c_str(), Num(peak_rss_mb).c_str(),
      Num(late_p99).c_str(), on_schedule ? "true" : "false",
      NumList(setup.total_s).c_str(), replay_json.c_str(), twins_checked,
      twins_differ);

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(g.sent);
  out += ", \"failed\": " + std::to_string(g.wrong);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
