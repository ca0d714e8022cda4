#include "core/framework.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "common/string_util.h"
#include "query/query_canonical.h"

namespace star::core {

using graph::KnowledgeGraph;
using graph::LabelIndex;
using query::QueryGraph;
using query::StarQuery;
using scoring::QueryScorer;
using text::SimilarityEnsemble;

std::string StarOptionsFingerprint(const StarOptions& o, bool has_index) {
  // Doubles go in by their bits: two configs key equal iff every scoring
  // parameter is the identical double, with no decimal round trip.
  std::string s;
  AppendKeyU64(s, static_cast<uint64_t>(o.strategy));
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.match.node_threshold));
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.match.edge_threshold));
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.match.lambda));
  AppendKeyU64(s, static_cast<uint64_t>(o.match.d));
  AppendKeyU64(s, o.match.max_candidates);
  AppendKeyU64(s, o.match.max_retrieval);
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.match.wildcard_node_score));
  AppendKeyU64(s, o.match.enforce_injective ? 1 : 0);
  // Degradation sampling is result-affecting (it shrinks candidate
  // pools), so degraded and nominal runs must never share cache entries.
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.match.sample_rate));
  AppendKeyU64(s, o.match.sample_seed);
  AppendKeyU64(s, static_cast<uint64_t>(o.decomposition.strategy));
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.decomposition.lambda_tradeoff));
  AppendKeyU64(s, o.decomposition.sample_size);
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.decomposition.connectivity_p));
  AppendKeyU64(s, o.decomposition.seed);
  AppendKeyU64(s, static_cast<uint64_t>(o.decomposition.max_enumeration_nodes));
  AppendKeyU64(s, std::bit_cast<uint64_t>(o.alpha));
  AppendKeyU64(s, has_index ? 1 : 0);
  return s;
}

StarFramework::StarFramework(const KnowledgeGraph& g,
                             const SimilarityEnsemble& ensemble,
                             const LabelIndex* index, StarOptions options)
    : graph_(g),
      ensemble_(ensemble),
      index_(index),
      options_(options) {}

std::vector<double> AlphaNodeWeights(const QueryGraph& q,
                                     const std::vector<StarQuery>& stars,
                                     size_t star_index, double alpha) {
  // Which stars touch each query node (pivot or leaf of an owned edge).
  std::vector<std::vector<size_t>> stars_of_node(q.node_count());
  for (size_t i = 0; i < stars.size(); ++i) {
    std::vector<bool> in_star(q.node_count(), false);
    in_star[stars[i].pivot] = true;
    for (const int e : stars[i].edges) {
      in_star[q.edge(e).u] = true;
      in_star[q.edge(e).v] = true;
    }
    for (int u = 0; u < q.node_count(); ++u) {
      if (in_star[u]) stars_of_node[u].push_back(i);
    }
  }
  std::vector<double> weights(q.node_count(), 1.0);
  for (int u = 0; u < q.node_count(); ++u) {
    const auto& owners = stars_of_node[u];
    const auto it = std::find(owners.begin(), owners.end(), star_index);
    if (it == owners.end()) {
      weights[u] = 0.0;  // node not in this star; unused
      continue;
    }
    if (owners.size() == 1) {
      weights[u] = 1.0;
    } else if (*owners.begin() == star_index) {
      weights[u] = alpha;  // the first (left) owner gets α
    } else {
      weights[u] = (1.0 - alpha) / static_cast<double>(owners.size() - 1);
    }
  }
  return weights;
}

std::string StarCacheKey(const std::string& config_fingerprint,
                         const QueryGraph& q, const StarQuery& star,
                         const std::vector<double>& node_weights) {
  const query::CanonicalStar canon =
      query::CanonicalizeStar(q, star, node_weights);
  if (!canon.exact) return {};
  std::string key = config_fingerprint;
  key += 'S';
  key += canon.signature;
  return key;
}

std::vector<NodeCandidateInfo> CollectNodeCandidateInfo(
    const QueryGraph& q, const QueryScorer& scorer) {
  const scoring::MatchConfig& cfg = scorer.config();
  std::vector<NodeCandidateInfo> out(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    NodeCandidateInfo& info = out[u];
    info.wildcard = q.node(u).wildcard;
    info.sampled = cfg.sampling() && !info.wildcard;
    const scoring::ScoredListInfo& scored = scorer.ScoredInfo(u);
    if (!scored.scored) continue;
    info.computed = true;
    info.top_score = scored.top_score;
    info.cut_score = scored.cut_score;
    info.cut_applied =
        cfg.max_candidates > 0 && scored.size == cfg.max_candidates;
  }
  return out;
}

std::vector<GraphMatch> StarFramework::TopK(const QueryGraph& q, size_t k,
                                            const Cancellation* cancel,
                                            common::MonotonicArena* arena) {
  stats_ = FrameworkStats{};
  std::vector<GraphMatch> out;
  if (k == 0 || !q.Validate().ok()) return out;
  // Even one-shot callers benefit from per-query arena allocation (block
  // reuse within the query); persistent-worker callers pass their own
  // arena and amortize the blocks across requests.
  common::MonotonicArena local_arena;  // allocates nothing unless used
  if (arena == nullptr) arena = &local_arena;

  // Pre-expired deadline / pre-cancelled request: return before building
  // the scorer so not a single candidate is retrieved or scored.
  CancelChecker cancel_check(cancel);
  if (cancel_check.ShouldStop()) {
    stats_.cancelled = true;
    return out;
  }

  // Scorer shared by decomposition sampling and all star searches, so
  // each candidate list and relation-score table is computed once per
  // query.
  QueryScorer scorer(graph_, q, ensemble_, options_.match, index_, arena);
  scorer.set_cancellation(cancel);

  // Cross-query reuse: capture the generation BEFORE any star probe, so a
  // prefix computed against state that Invalidate() has since dropped is
  // never published.
  ReuseCache* const reuse = options_.reuse;
  const uint64_t generation = reuse ? reuse->generation() : 0;
  // The config segment of every star key, from the options as they are
  // now: mutable_options() may have changed them since the last call.
  const std::string fingerprint =
      reuse ? StarOptionsFingerprint(options_, index_ != nullptr)
            : std::string();

  const std::vector<StarQuery> stars =
      DecomposeQuery(q, options_.decomposition, &scorer);
  stats_.num_stars = stars.size();
  const bool single = stars.size() == 1;

  // One memo-aware monotone stream per star. Single-star queries use the
  // stream directly (Fig. 4 step 2 only); general queries fold the streams
  // with left-deep α-scheme rank joins (§VI-A). Star cache keys combine
  // the config fingerprint with the canonical star signature; lookups
  // compare the full key string, never a hash. At d <= 1 the other stars'
  // lists restrict a star's lists, so a star of a multi-star query is not
  // a function of its signature and never touches the star cache.
  std::vector<CachedStarStream*> stream_ptrs;
  std::vector<RankJoin*> join_ptrs;
  std::unique_ptr<CoveredMatchIterator> pipeline;
  // Keep the searches' scorer alive: all streams reference `scorer`.
  for (size_t i = 0; i < stars.size(); ++i) {
    StarSearch::Options so;
    so.strategy = options_.strategy;
    // Joins may need arbitrarily deep star streams; a standalone star
    // never pulls past k, so Prop. 3 pruning applies.
    so.k_hint = single ? k : 0;
    if (!single) so.node_weights = AlphaNodeWeights(q, stars, i, options_.alpha);
    so.cancel = cancel;
    std::string star_key;
    if (reuse != nullptr && (single || options_.match.d >= 2)) {
      star_key = StarCacheKey(fingerprint, q, stars[i], so.node_weights);
    }
    auto stream = std::make_unique<CachedStarStream>(
        scorer, stars[i], std::move(so), reuse, std::move(star_key),
        generation);
    stream_ptrs.push_back(stream.get());
    if (pipeline == nullptr) {
      pipeline = std::move(stream);
    } else {
      auto join = std::make_unique<RankJoin>(std::move(pipeline),
                                             std::move(stream),
                                             options_.match.enforce_injective,
                                             cancel,
                                             scorer.transient_resource());
      join_ptrs.push_back(join.get());
      pipeline = std::move(join);
    }
  }

  while (out.size() < k) {
    // scorer.truncated() is a plain bool read, checked unamortized: a
    // cancellation observed inside a lazy Candidates() call leaves that
    // list missing arbitrary entries, and the stride-amortized clock
    // check alone could emit further (possibly misordered) matches from
    // the incomplete universe before noticing the expiry.
    if (cancel_check.ShouldStop() || scorer.truncated()) {
      stats_.cancelled = true;
      break;
    }
    auto m = pipeline->Next();
    if (!m.has_value()) break;
    out.push_back(std::move(*m));
  }

  // Certified residual bound for the anytime-answer certificate. With
  // complete candidate lists the live pipeline bound is sound even after
  // a cancellation (StarSearch falls back to its a-priori cap), and the
  // monotone emission order lets the last emitted score tighten it. A
  // truncated scorer invalidates both (lists may be missing arbitrary
  // entries), leaving only the query-wide a-priori cap.
  if (scorer.truncated()) {
    stats_.residual_bound = scorer.ScoreUpperBound();
  } else {
    // With Prop. 3 pruning active (single-star k_hint), a claimed
    // exhaustion only means "nothing left could alter the top-k" — the
    // pruned tail still exists, so the stream's bound is not a bound on
    // it. Once the answer is full, the k-th score is (anything unemitted
    // ranks below it by definition).
    double residual = single && out.size() == k
                          ? out.back().score
                          : pipeline->UpperBound();
    if (!out.empty()) residual = std::min(residual, out.back().score);
    stats_.residual_bound = residual;
  }
  stats_.node_candidates = CollectNodeCandidateInfo(q, scorer);
  stats_.retrieval = scorer.retrieval_stats();

  stats_.star_depths.clear();
  for (CachedStarStream* s : stream_ptrs) {
    stats_.star_depths.push_back(s->depth());
    stats_.total_depth += s->depth();
    stats_.search.Merge(s->stats());
    if (s->probed()) {
      s->cache_hit() ? ++stats_.star_cache_hits : ++stats_.star_cache_misses;
      if (s->resumed()) ++stats_.star_cache_resumes;
    }
  }
  // The scorer's own checkpoints (bulk scoring, candidate retrieval) can
  // observe an expiry that the search-level checkers miss; its sticky
  // truncation flag makes sure such a run is never reported complete.
  stats_.cancelled |= stats_.search.cancelled;
  for (const RankJoin* j : join_ptrs) stats_.cancelled |= j->cancelled();
  stats_.cancelled |= scorer.truncated();

  // Publish to the reuse cache — only when the whole run finished without
  // any cancellation anywhere, so a truncated stream prefix can never be
  // replayed as the definitive answer.
  if (reuse != nullptr && !stats_.cancelled) {
    for (CachedStarStream* s : stream_ptrs) s->CommitToCache();
  }
  return out;
}

}  // namespace star::core
