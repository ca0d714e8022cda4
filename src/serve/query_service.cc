#include "serve/query_service.h"

#include <algorithm>

#include "common/arena.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "query/query_canonical.h"

namespace star::serve {

QueryService::QueryService(const graph::KnowledgeGraph& g,
                           const text::SimilarityEnsemble& ensemble,
                           const graph::LabelIndex* index,
                           ServiceOptions options)
    : graph_(g),
      ensemble_(ensemble),
      index_(index),
      options_([&options] {
        options.max_inflight = std::max(1, options.max_inflight);
        options.star.reuse = nullptr;  // the service wires its own cache
        return std::move(options);
      }()),
      config_key_(core::StarOptionsFingerprint(options_.star,
                                               index_ != nullptr)),
      cache_(options_.cache_capacity),
      star_cache_(options_.star_cache_capacity) {
  // Workers chain through the queue, so max_inflight pool threads suffice;
  // each request runs start to finish on the one worker that took it.
  ThreadPool::Global().EnsureWorkers(options_.max_inflight);
}

QueryService::~QueryService() {
  std::unique_lock<std::mutex> lock(mu_);
  accepting_ = false;
  // Workers drain the queue before retiring, so inflight_ == 0 implies the
  // queue is empty and every admitted promise has been fulfilled. Flights
  // settle when their leader does, so no follower outlives the wait either.
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::string QueryService::KeyFromSignature(std::string signature,
                                           size_t k) const {
  std::string key = std::move(signature);
  key += kKeySep;
  key += config_key_;
  AppendKeyU64(key, k);
  return key;
}

std::string QueryService::CacheKey(const query::QueryGraph& q,
                                   size_t k) const {
  return KeyFromSignature(query::CanonicalizeQuery(q).signature, k);
}

std::vector<core::GraphMatch> QueryService::RemapMatches(
    const std::vector<core::GraphMatch>& matches,
    const std::vector<int>& from_rank, const std::vector<int>& to_rank) {
  if (from_rank == to_rank) return matches;  // verbatim replay: plain copy
  const size_t n = from_rank.size();
  // Two hops through canonical rank space: canon[r] is the data node the
  // source match assigned to the query node of rank r; the caller's node u
  // then reads canon[to_rank[u]]. Equal signatures guarantee both rank
  // vectors are permutations of [0, n) over structurally identical nodes,
  // so the remapped mapping is a match of the caller's query with the
  // same (bitwise) score.
  std::vector<graph::NodeId> canon(n);
  std::vector<core::GraphMatch> out;
  out.reserve(matches.size());
  for (const core::GraphMatch& m : matches) {
    core::GraphMatch r = m;
    for (size_t u = 0; u < n; ++u) {
      canon[static_cast<size_t>(from_rank[u])] = m.mapping[u];
    }
    for (size_t u = 0; u < n; ++u) {
      r.mapping[u] = canon[static_cast<size_t>(to_rank[u])];
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::future<QueryResponse> QueryService::Submit(QueryRequest req) {
  if (req.deadline.infinite() && options_.default_timeout_ms > 0) {
    req.deadline = Deadline::AfterMillis(options_.default_timeout_ms);
  }
  // Typo-tolerant rewrite BEFORE canonicalization: the rewritten query is
  // what gets keyed, coalesced, executed and certified, so corrected
  // requests share cache entries and flights with their verbatim twins.
  std::vector<LabelRewrite> rewrites;
  if (req.fuzzy_labels && index_ != nullptr) {
    rewrites = RewriteFuzzyLabels(*index_, &req.query);
  }
  auto p = std::make_shared<Pending>(std::move(req));
  p->rewrites = std::move(rewrites);
  std::future<QueryResponse> fut = p->promise.get_future();

  Status reject = p->req.k == 0 ? Status::InvalidArgument("k must be >= 1")
                                : p->req.query.Validate();

  // Normalized key, computed outside the lock (canonicalization walks the
  // query). Shared by the result cache and the coalescing map; a cache
  // opt-out also opts out of coalescing (such callers want an execution of
  // their own).
  const bool keyed = reject.ok() && p->req.use_cache &&
                     (options_.cache_capacity > 0 || options_.enable_coalescing);
  if (keyed) {
    query::CanonicalQuery canon = query::CanonicalizeQuery(p->req.query);
    p->key = KeyFromSignature(std::move(canon.signature), p->req.k);
    // Kept alongside the key: a hit (or coalesced flight) sharing this key
    // may have run an equivalent reordering of this query, and delivery
    // remaps its mappings through these ranks into this caller's order.
    p->node_rank = std::move(canon.node_rank);
  }

  bool dispatch = false;
  bool coalesced = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (!reject.ok()) {
      ++stats_.rejected_invalid;
    } else if (!accepting_) {
      reject = Status::Overloaded("service is shutting down");
      ++stats_.rejected_overload;
    } else {
      // Accuracy-first shedding: the level is fixed by queue occupancy at
      // admission, BEFORE the key is used for anything — it is part of
      // the key, so cache entries and coalesced flights never cross
      // levels (a degraded answer cannot satisfy a stricter request).
      p->degrade_level = ChooseDegradationLevel(options_.degrade,
                                                queue_.size(),
                                                options_.max_queue);
      if (keyed && p->degrade_level > 0) {
        p->key += kKeySep;
        p->key += static_cast<char>('0' + p->degrade_level);
      }
      if (!p->rewrites.empty()) ++stats_.fuzzy_rewritten;
      if (options_.enable_coalescing && keyed) {
        const auto it = flights_.find(p->key);
        if (it != flights_.end()) {
          // Identical request already in flight: ride along. Consumes no
          // worker slot and no queue capacity.
          it->second->followers.push_back(p);
          ++stats_.coalesced_followers;
          coalesced = true;
        }
      }
      if (!coalesced) {
        bool admitted = false;
        if (inflight_ < options_.max_inflight) {
          ++inflight_;
          dispatch = true;
          admitted = true;
        } else if (queue_.size() < options_.max_queue) {
          queue_.push_back(p);
          admitted = true;
        } else {
          reject = Status::Overloaded("admission queue full");
          ++stats_.rejected_overload;
        }
        if (admitted) {
          ++stats_.degraded_at_level[static_cast<size_t>(p->degrade_level)];
          if (options_.enable_coalescing && keyed) {
            p->flight = std::make_shared<Flight>();
            flights_.emplace(p->key, p->flight);
          }
        }
      }
    }
  }

  if (!reject.ok()) {
    QueryResponse resp;
    resp.status = std::move(reject);
    p->promise.set_value(std::move(resp));
  } else if (dispatch) {
    ThreadPool::Global().Submit(
        [this, p]() mutable { WorkerLoop(std::move(p)); });
  }
  return fut;
}

QueryResponse QueryService::Execute(QueryRequest req) {
  return Submit(std::move(req)).get();
}

void QueryService::InvalidateCache() {
  cache_.Invalidate();
  star_cache_.Invalidate();
}

void QueryService::WorkerLoop(std::shared_ptr<Pending> p) {
  for (;;) {
    QueryResponse resp = Run(*p);
    if (auto promoted = FinishAndSettle(std::move(p), std::move(resp))) {
      // A follower inherited the flight after the leader's deadline
      // expired; run it on this worker's slot before draining the queue.
      p = std::move(promoted);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) {
      if (--inflight_ == 0) idle_cv_.notify_all();
      return;
    }
    p = std::move(queue_.front());
    queue_.pop_front();
  }
}

QueryResponse QueryService::Run(Pending& p) {
  QueryResponse resp;
  resp.queue_ms = p.queued.ElapsedMillis();
  resp.rewrites = p.rewrites;
  resp.certificate.degradation_level = p.degrade_level;
  if (options_.before_execute) options_.before_execute();

  // A request that expired while queued is answered without touching the
  // graph: resp.framework stays zeroed (no candidate retrieval, no scan)
  // and the default certificate (+inf bound, empty prefix) honestly
  // claims nothing.
  CancelChecker entry_check(&p.cancel);
  if (entry_check.ShouldStop()) {
    resp.status = Status::DeadlineExceeded("deadline expired while queued");
    resp.partial = true;
    return resp;
  }

  WallTimer exec;
  const bool use_cache = options_.cache_capacity > 0 && p.req.use_cache;
  uint64_t generation = 0;
  if (use_cache) {
    generation = cache_.generation();
    if (auto hit = cache_.Lookup(p.key)) {
      // Copy (and, when the entry was inserted by a reordered-equivalent
      // query, remap into this caller's node order) outside the cache
      // mutex. Verbatim replays take the plain-copy fast path inside.
      resp.matches = RemapMatches(hit->matches, hit->node_rank, p.node_rank);
      resp.cache_hit = true;
      resp.certificate = hit->certificate;
      resp.status = Status::Ok();
      resp.exec_ms = exec.ElapsedMillis();
      return resp;
    }
  }

  core::StarOptions star_options = options_.star;
  if (options_.star_cache_capacity > 0 && p.req.use_cache) {
    star_options.reuse = &star_cache_;
  }
  // Degraded execution: every knob ApplyDegradation touches is part of
  // StarOptionsFingerprint, so the star-level reuse cache segregates
  // degraded prefixes from nominal ones automatically.
  ApplyDegradation(options_.degrade, p.degrade_level, &star_options);
  // Per-worker request arena: pool threads persist across requests, so
  // after warm-up the largest block absorbs each request's transient
  // state (candidate lists, traversal frontiers, the rank-join heap) with
  // zero allocation churn. Reset ONCE per request, before the query runs;
  // everything the framework allocated from it last request is dead by
  // then (responses own plain heap copies).
  static thread_local common::MonotonicArena arena;
  arena.Reset();
  core::StarFramework fw(graph_, ensemble_, index_, star_options);
  resp.matches = fw.TopK(p.req.query, p.req.k, &p.cancel, &arena);
  resp.exec_ms = exec.ElapsedMillis();
  resp.framework = fw.last_stats();
  // The engine's hot-loop checkers amortize clock reads (64-call stride),
  // so a deadline can expire mid-run, truncate work, and still leave
  // FrameworkStats.cancelled unset. Cancellation is monotone, so one
  // unamortized ShouldStop here catches every such truncation before the
  // result is declared complete — in particular, a possibly-truncated
  // result must never be inserted into the cache, where it would be served
  // as the definitive answer for its key until eviction.
  const bool truncated = resp.framework.cancelled || p.cancel.ShouldStop();
  if (truncated && !resp.framework.cancelled) {
    // The late expiry above is exactly a cancellation the engine missed;
    // make the stats (and the certificate derived from them) say so.
    resp.framework.cancelled = true;
  }
  // Every executed response — complete, degraded, or deadline-truncated —
  // carries its certified quality statement (serve/degrade.h).
  resp.certificate =
      BuildCertificate(p.req.query, options_.star, star_options,
                       p.degrade_level, resp.framework, resp.matches);
  if (truncated) {
    resp.partial = true;
    resp.status = Status::DeadlineExceeded(
        "deadline expired during execution; matches are a top-k prefix");
  } else {
    resp.status = Status::Ok();
    // Only complete answers enter the cache, and only if no invalidation
    // happened since the lookup — hits stay bitwise identical to fresh
    // runs, certificate included (the key carries the degradation level).
    if (use_cache) {
      cache_.Insert(p.key, resp.matches, p.node_rank, generation,
                    resp.certificate);
    }
  }
  return resp;
}

void QueryService::RecordLocked(const QueryResponse& resp) {
  switch (resp.status.code()) {
    case StatusCode::kOk:
      ++stats_.completed;
      break;
    case StatusCode::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
    default:
      break;
  }
  stats_.total_queue_ms += resp.queue_ms;
  stats_.total_exec_ms += resp.exec_ms;
  stats_.max_queue_ms = std::max(stats_.max_queue_ms, resp.queue_ms);
  stats_.max_exec_ms = std::max(stats_.max_exec_ms, resp.exec_ms);
}

std::shared_ptr<QueryService::Pending> QueryService::FinishAndSettle(
    std::shared_ptr<Pending> p, QueryResponse resp) {
  // Followers to answer now; on leader failure these are the expired ones.
  std::vector<std::shared_ptr<Pending>> deliver;
  std::shared_ptr<Pending> promoted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RecordLocked(resp);
    if (p->flight != nullptr) {
      std::shared_ptr<Flight> flight = std::move(p->flight);
      if (resp.status.ok()) {
        deliver = std::move(flight->followers);
        flights_.erase(p->key);
      } else {
        // The leader's own deadline expired. Its partial answer reflects
        // the LEADER's budget, not the followers'; promote the first
        // still-live follower to re-run under its own deadline and answer
        // only the followers that are themselves already expired.
        std::vector<std::shared_ptr<Pending>> keep;
        for (auto& f : flight->followers) {
          if (promoted == nullptr && !f->cancel.ShouldStop()) {
            promoted = std::move(f);
          } else if (f->cancel.ShouldStop()) {
            deliver.push_back(std::move(f));
          } else {
            keep.push_back(std::move(f));
          }
        }
        if (promoted != nullptr) {
          flight->followers = std::move(keep);
          promoted->flight = std::move(flight);  // same key → map unchanged
          ++stats_.coalesce_promotions;
        } else {
          flights_.erase(p->key);
        }
      }
    }
  }

  const bool leader_ok = resp.status.ok();
  std::vector<QueryResponse> follower_resps;
  follower_resps.reserve(deliver.size());
  for (const auto& f : deliver) {
    QueryResponse fr;
    fr.queue_ms = f->queued.ElapsedMillis();
    // A follower that outlived its own deadline while riding along gets
    // the honest answer: nothing was computed on its behalf in time.
    if (leader_ok && !f->cancel.ShouldStop()) {
      fr.status = Status::Ok();
      // Copied — and remapped into the follower's node order when it is a
      // reordered equivalent of the leader — outside the service mutex.
      // resp.matches is in the LEADER's node order (fresh runs trivially;
      // cache hits were remapped to it in Run).
      fr.matches = RemapMatches(resp.matches, p->node_rank, f->node_rank);
      fr.cache_hit = resp.cache_hit;
      fr.coalesced = true;
      // Same key => same degradation level: the leader's certificate
      // describes the follower's answer verbatim (score-based, remap-proof).
      fr.certificate = resp.certificate;
      fr.rewrites = f->rewrites;
    } else {
      fr.status = Status::DeadlineExceeded(
          "deadline expired while coalesced with an identical request");
      fr.partial = true;
    }
    follower_resps.push_back(std::move(fr));
  }
  if (!deliver.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const QueryResponse& fr : follower_resps) RecordLocked(fr);
  }

  p->promise.set_value(std::move(resp));
  for (size_t i = 0; i < deliver.size(); ++i) {
    deliver[i]->promise.set_value(std::move(follower_resps[i]));
  }
  return promoted;
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  const CacheStats c = cache_.stats();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  return s;
}

}  // namespace star::serve
