#ifndef STAR_SERVE_QUERY_SERVICE_H_
#define STAR_SERVE_QUERY_SERVICE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/certificate.h"
#include "core/framework.h"
#include "serve/degrade.h"
#include "serve/query_rewrite.h"
#include "serve/result_cache.h"
#include "serve/star_cache.h"

namespace star::serve {

struct ServiceOptions {
  /// Engine configuration shared by every request (fixed for the service's
  /// lifetime; it is part of the cache key contract).
  core::StarOptions star;

  /// Requests executing concurrently. Admission beyond this queues.
  int max_inflight = 4;

  /// Requests waiting for a worker. Admission beyond max_inflight +
  /// max_queue is rejected with kOverloaded — the queue is bounded so an
  /// overloaded service degrades by shedding load, not by growing latency
  /// without bound.
  size_t max_queue = 64;

  /// Result-cache entries (0 disables caching entirely).
  size_t cache_capacity = 128;

  /// Star-level reuse-cache entries per section (candidate lists and star
  /// top-lists; 0 disables). Unlike the result cache, this one pays off
  /// across DIFFERENT queries that share canonical stars or node shapes.
  /// The service overrides `star.reuse` to point at its own cache.
  size_t star_cache_capacity = 256;

  /// Single-flight request coalescing: a request whose normalized cache
  /// key matches one already executing attaches to that execution instead
  /// of running (or queueing) its own. Requires use_cache on the request.
  bool enable_coalescing = true;

  /// Deadline applied to requests that arrive without one, measured from
  /// admission (so it covers queue wait). 0 = no implicit deadline.
  double default_timeout_ms = 0.0;

  /// Test hook: runs on the worker thread immediately before each request
  /// executes (after dequeue, before the deadline checkpoint). Lets tests
  /// hold workers busy deterministically to exercise admission control.
  std::function<void()> before_execute;

  /// Accuracy-first load shedding (see serve/degrade.h): under queue
  /// pressure, admission picks a degradation level that trades answer
  /// quality for capacity before anything is rejected with kOverloaded.
  /// The chosen level is part of the request's cache/coalescing key, so
  /// degraded answers never serve stricter requests.
  DegradePolicy degrade;
};

struct QueryRequest {
  query::QueryGraph query;
  size_t k = 10;
  /// Infinite by default; the service substitutes default_timeout_ms.
  Deadline deadline;
  /// Per-request cache opt-out (e.g. for freshness-critical callers).
  bool use_cache = true;
  /// Opt-in typo tolerance: unknown label tokens are rewritten to their
  /// best trigram correction before the query is keyed and executed (see
  /// serve/query_rewrite.h). Applied corrections are reported in
  /// QueryResponse::rewrites. No-op without a label index.
  bool fuzzy_labels = false;
};

struct QueryResponse {
  /// Ok: `matches` is the exact top-k. DeadlineExceeded: `matches` is a
  /// correctly ordered prefix of it (possibly empty) and `partial` is set.
  /// Overloaded / InvalidArgument: rejected at admission, `matches` empty.
  Status status;
  std::vector<core::GraphMatch> matches;
  bool cache_hit = false;
  /// True when this response was copied from a coalesced leader's
  /// execution rather than a run (or cache lookup) of its own.
  bool coalesced = false;
  bool partial = false;
  /// Admission-to-execution wait (includes promise dispatch overhead).
  double queue_ms = 0.0;
  /// Execution wall time (cache lookup or fresh engine run).
  double exec_ms = 0.0;
  /// Engine diagnostics; zero-initialized unless a fresh execution ran
  /// (tests use pivot_candidates == 0 to prove an expired request did no
  /// candidate retrieval).
  core::FrameworkStats framework;
  /// Certified quality statement about `matches` relative to the
  /// service's NOMINAL configuration (serve/degrade.h): how long a prefix
  /// is provably the exact top-k prefix, and what any other valid match
  /// can still score. Present on every response that reached execution —
  /// complete, deadline-truncated, or degraded; the default (+inf bound,
  /// empty prefix) honestly describes a response that computed nothing.
  core::QualityCertificate certificate;
  /// Typo corrections applied before execution (QueryRequest::fuzzy_labels).
  std::vector<LabelRewrite> rewrites;
};

struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;          // OK responses (cache hits included)
  uint64_t rejected_overload = 0;  // kOverloaded at admission
  uint64_t rejected_invalid = 0;   // kInvalidArgument at admission
  uint64_t deadline_exceeded = 0;  // kDeadlineExceeded (queued or mid-run)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Requests answered by attaching to an identical in-flight execution.
  uint64_t coalesced_followers = 0;
  /// Admitted executions per shedding-ladder level (index = level; level
  /// 0 counts nominal admissions while shedding is enabled AND while it
  /// is off). Coalesced followers ride their leader's level and are not
  /// re-counted.
  std::array<uint64_t, kMaxDegradationLevel + 1> degraded_at_level{};
  /// Requests whose labels the fuzzy rewrite pass actually changed.
  uint64_t fuzzy_rewritten = 0;
  /// Followers promoted to leader after their leader's deadline expired.
  uint64_t coalesce_promotions = 0;
  double total_queue_ms = 0.0;
  double total_exec_ms = 0.0;
  double max_queue_ms = 0.0;
  double max_exec_ms = 0.0;

  double cache_hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

/// A concurrent query-serving front end over StarFramework: owns no graph
/// data itself but holds warm references to the shared read-only state
/// (graph, similarity ensemble, label index) and serves many clients on
/// the process-wide thread pool.
///
/// Guarantees:
///  - Admission control: at most max_inflight requests execute at once and
///    at most max_queue wait; everything beyond that is rejected
///    *synchronously* with kOverloaded (the returned future is already
///    ready — no hidden unbounded queue).
///  - Deadlines: each request's deadline is threaded into every engine hot
///    loop as a cooperative cancellation token. An expired request returns
///    kDeadlineExceeded with whatever prefix of the top-k was already
///    emitted; a request that expires while queued returns promptly
///    without touching the graph.
///  - Result cache: normalized-query LRU keyed by the canonical query
///    signature (insertion-order insensitive), the matching semantics, and
///    k. Hits are bitwise identical to fresh execution. Because the key is
///    insertion-order insensitive, a hit (or a coalesced flight) may be
///    served from an *equivalent reordering* of the caller's query; each
///    cache entry therefore stores the inserter's canonical node ranks,
///    and hit mappings are remapped into the caller's node order before
///    delivery (scores are untouched — they are node-order invariant).
///    InvalidateCache() bumps a generation counter so in-flight stale
///    results never land.
///  - Star-level reuse: fresh executions run against a shared StarCache of
///    canonical-star stream prefixes and per-node candidate lists, so
///    DIFFERENT queries that overlap in template structure skip the
///    overlapping work. Warm results stay bitwise identical to cold ones.
///  - Single-flight coalescing: duplicate requests (same normalized cache
///    key) attach to the in-flight leader and receive copies of its
///    result — N identical concurrent requests cost one execution. A
///    follower whose own deadline expires is answered kDeadlineExceeded at
///    delivery without detaching the rest; if the LEADER's deadline
///    expires, a live follower is promoted and re-runs (its own deadline
///    governs), so one short-deadline client can't poison the flight.
///
/// Thread safety: all public methods are safe to call from any thread.
/// The referenced graph/ensemble/index must outlive the service and stay
/// unmodified while it serves (matching StarFramework's contract).
class QueryService {
 public:
  QueryService(const graph::KnowledgeGraph& g,
               const text::SimilarityEnsemble& ensemble,
               const graph::LabelIndex* index, ServiceOptions options);

  /// Blocks until every admitted request has completed. New submissions
  /// are rejected with kOverloaded during shutdown.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits (or rejects) the request and returns a future for its
  /// response. Rejection (kOverloaded, kInvalidArgument) resolves the
  /// future before Submit returns.
  std::future<QueryResponse> Submit(QueryRequest req);

  /// Synchronous convenience: Submit and wait.
  QueryResponse Execute(QueryRequest req);

  /// Drops all cached state (result cache AND star-level reuse cache) and
  /// bumps both generations. Call after mutating the underlying
  /// graph/index between serving windows.
  void InvalidateCache();

  ServiceStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  StarCacheStats star_cache_stats() const { return star_cache_.stats(); }
  const ServiceOptions& options() const { return options_; }

  /// The normalized cache key for (q, k) under this service's
  /// configuration. Exposed for tests and cache diagnostics.
  std::string CacheKey(const query::QueryGraph& q, size_t k) const;

 private:
  struct Pending;

  /// One in-flight execution that duplicates may attach to. Guarded by
  /// mu_; the leader holds a reference through Pending::flight, the key →
  /// flight map through flights_.
  struct Flight {
    std::vector<std::shared_ptr<Pending>> followers;
  };

  struct Pending {
    QueryRequest req;
    std::promise<QueryResponse> promise;
    WallTimer queued;      // started at admission
    Cancellation cancel;   // owns the request's deadline
    /// Normalized cache key; empty when neither caching nor coalescing
    /// applies to this request.
    std::string key;
    /// Canonical rank of each of this request's query nodes (parallel to
    /// `key`: set exactly when the request is keyed). Used to remap
    /// mappings between reordered-equivalent queries that share a key.
    std::vector<int> node_rank;
    /// Shedding-ladder level chosen at admission (0 = nominal). Fixed for
    /// the request's lifetime and appended to `key`, so cache entries and
    /// coalesced flights never cross levels.
    int degrade_level = 0;
    /// Label corrections the fuzzy rewrite applied to req.query.
    std::vector<LabelRewrite> rewrites;
    /// Set on the flight LEADER only (followers are reached through it).
    std::shared_ptr<Flight> flight;

    explicit Pending(QueryRequest r)
        : req(std::move(r)), cancel(req.deadline) {}
  };

  /// Worker body: runs `p` (and any follower promoted from its flight),
  /// then keeps draining the queue until empty.
  void WorkerLoop(std::shared_ptr<Pending> p);

  /// Executes one admitted request (cache lookup / engine run / deadline
  /// handling). Runs on a pool worker.
  QueryResponse Run(Pending& p);

  /// Records stats, settles the leader's flight (delivering the result to
  /// every follower or promoting one), and fulfills the promises. Returns
  /// the promoted follower the calling worker must run next, if any.
  std::shared_ptr<Pending> FinishAndSettle(std::shared_ptr<Pending> p,
                                           QueryResponse resp);

  /// Folds one response into stats_. Caller holds mu_.
  void RecordLocked(const QueryResponse& resp);

  /// Re-expresses `matches` (whose mappings use the node order of the
  /// query with canonical ranks `from_rank`) in the node order of an
  /// equivalent query with ranks `to_rank`. Both rank vectors must come
  /// from queries with the same canonical signature. Scores pass through
  /// bitwise; when the ranks already agree the matches are returned
  /// unchanged (the verbatim-replay fast path).
  static std::vector<core::GraphMatch> RemapMatches(
      const std::vector<core::GraphMatch>& matches,
      const std::vector<int>& from_rank, const std::vector<int>& to_rank);

  /// Composes the normalized key from an already-computed canonical
  /// signature. Shared by CacheKey and Submit (which canonicalizes once
  /// and also keeps the node ranks for remapping).
  std::string KeyFromSignature(std::string signature, size_t k) const;

  const graph::KnowledgeGraph& graph_;
  const text::SimilarityEnsemble& ensemble_;
  const graph::LabelIndex* index_;
  const ServiceOptions options_;
  /// Fingerprint of every result-affecting configuration field
  /// (core::StarOptionsFingerprint of options_.star and the index's
  /// presence).
  std::string config_key_;
  ResultCache cache_;
  StarCache star_cache_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  bool accepting_ = true;
  int inflight_ = 0;
  std::deque<std::shared_ptr<Pending>> queue_;
  /// Key → in-flight execution accepting followers. An entry lives exactly
  /// as long as some leader for that key is admitted (queued or running).
  std::unordered_map<std::string, std::shared_ptr<Flight>,
                     TransparentStringHash, std::equal_to<>>
      flights_;
  ServiceStats stats_;
};

}  // namespace star::serve

#endif  // STAR_SERVE_QUERY_SERVICE_H_
