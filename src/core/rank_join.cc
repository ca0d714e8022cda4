#include "core/rank_join.h"

#include <algorithm>
#include <limits>

namespace star::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

// ---------------------------------------------------------------------------
// CachedStarStream
// ---------------------------------------------------------------------------

CachedStarStream::CachedStarStream(scoring::QueryScorer& scorer,
                                   query::StarQuery star,
                                   StarSearch::Options options,
                                   ReuseCache* cache, std::string key,
                                   uint64_t generation)
    : cache_(cache),
      key_(std::move(key)),
      generation_(generation),
      search_(scorer, std::move(star), std::move(options)) {
  // Derive the covered-node mask by converting a placeholder star match:
  // exactly the pivot's and the leaves' query-node slots get mapped.
  StarMatch probe;
  probe.pivot = 0;
  probe.leaves.assign(search_.star().edges.size(), 0);
  const GraphMatch gm = search_.ToGraphMatch(probe);
  for (size_t u = 0; u < gm.mapping.size(); ++u) {
    if (gm.mapping[u] != graph::kInvalidNode) covered_ |= uint64_t{1} << u;
  }
  if (probed()) {
    entry_ = cache_->LookupStarTopList(key_);
    // A malformed entry (bounds not aligned with matches) can never replay
    // faithfully; treat it as a miss rather than trusting it.
    if (entry_.has_value() &&
        (entry_->matches == nullptr || entry_->bounds == nullptr ||
         entry_->bounds->size() != entry_->matches->size() + 1)) {
      entry_.reset();
    }
  }
}

std::optional<GraphMatch> CachedStarStream::Next() {
  if (entry_.has_value()) {
    const auto& cached = *entry_->matches;
    if (pos_ < cached.size()) {
      ++depth_;
      return search_.ToGraphMatch(cached[pos_++]);
    }
    if (entry_->exhausted) return std::nullopt;
    if (!resumed_) {
      // The consumer outran the recording: fast-forward the cold search
      // past the replayed prefix (the search is deterministic per
      // canonical star, so discarded pull i is exactly cached[i]) and
      // carry the recording forward from there.
      resumed_ = true;
      record_matches_ = cached;
      record_bounds_ = *entry_->bounds;
      for (size_t i = 0; i < cached.size(); ++i) {
        if (!search_.Next().has_value()) break;  // cancelled mid-skip
      }
    }
  }
  return LivePull();
}

std::optional<GraphMatch> CachedStarStream::LivePull() {
  if (probed() && record_bounds_.size() == depth_) {
    // The search bound after depth_ pulls — the value a consumer reads
    // between this pull and the previous one. Replays surface exactly
    // these recorded bounds so warm rank joins take identical decisions.
    record_bounds_.push_back(search_.UpperBound());
  }
  auto m = search_.Next();
  if (!m.has_value()) {
    if (!search_.stats().cancelled) live_exhausted_ = true;
    return std::nullopt;
  }
  if (probed()) record_matches_.push_back(*m);
  ++depth_;
  return search_.ToGraphMatch(*m);
}

double CachedStarStream::UpperBound() const {
  if (entry_.has_value() && !resumed_) {
    return (*entry_->bounds)[pos_];
  }
  return search_.UpperBound();
}

void CachedStarStream::CommitToCache() {
  if (!probed()) return;
  if (entry_.has_value() && !resumed_) return;  // nothing new learned
  if (record_matches_.empty() && !live_exhausted_) return;
  if (record_bounds_.size() == record_matches_.size()) {
    record_bounds_.push_back(search_.UpperBound());
  }
  // An interrupted fast-forward can leave the recording misaligned with
  // the bounds; such a recording can never replay faithfully, so drop it.
  if (record_bounds_.size() != record_matches_.size() + 1) return;
  cache_->InsertStarTopList(key_, std::move(record_matches_),
                            std::move(record_bounds_), live_exhausted_,
                            generation_);
}

// ---------------------------------------------------------------------------
// RankJoin
// ---------------------------------------------------------------------------

RankJoin::RankJoin(std::unique_ptr<CoveredMatchIterator> left,
                   std::unique_ptr<CoveredMatchIterator> right,
                   bool enforce_injective, const Cancellation* cancel,
                   std::pmr::memory_resource* mem)
    : enforce_injective_(enforce_injective),
      cancel_check_(cancel),
      results_(ResultOrder{},
               std::pmr::vector<GraphMatch>(
                   mem != nullptr ? mem : std::pmr::get_default_resource())) {
  left_.input = std::move(left);
  right_.input = std::move(right);
  covered_ = left_.input->covered_mask() | right_.input->covered_mask();
  const uint64_t shared =
      left_.input->covered_mask() & right_.input->covered_mask();
  for (int u = 0; u < 64; ++u) {
    if (shared & (uint64_t{1} << u)) shared_nodes_.push_back(u);
  }
  key_.resize(shared_nodes_.size());
  left_.keys = FlatTupleSet(shared_nodes_.size());
  right_.keys = FlatTupleSet(shared_nodes_.size());
}

void RankJoin::JoinKey(const GraphMatch& m) {
  for (size_t k = 0; k < shared_nodes_.size(); ++k) {
    key_[k] = m.mapping[shared_nodes_[k]];
  }
}

std::optional<GraphMatch> RankJoin::Combine(const GraphMatch& a,
                                            const GraphMatch& b) const {
  GraphMatch out;
  out.mapping.assign(std::max(a.mapping.size(), b.mapping.size()),
                     graph::kInvalidNode);
  for (size_t u = 0; u < out.mapping.size(); ++u) {
    const graph::NodeId va =
        u < a.mapping.size() ? a.mapping[u] : graph::kInvalidNode;
    const graph::NodeId vb =
        u < b.mapping.size() ? b.mapping[u] : graph::kInvalidNode;
    if (va != graph::kInvalidNode && vb != graph::kInvalidNode && va != vb) {
      return std::nullopt;  // conflicting shared assignment (key mismatch)
    }
    out.mapping[u] = va != graph::kInvalidNode ? va : vb;
  }
  if (enforce_injective_ && !out.Injective()) return std::nullopt;
  out.score = a.score + b.score;
  return out;
}

bool RankJoin::Pull(Side& self, Side& other) {
  if (self.exhausted || cancelled_) return false;
  auto m = self.input->Next();
  if (!m.has_value()) {
    if (self.input->cancelled()) {
      // The input stopped because it was cancelled, not because it ran
      // dry. Its unseen matches could still tie (or beat) buffered join
      // results, so marking it exhausted would drop its bound from the
      // threshold and emit those results out of canonical order — the
      // already-returned prefix would no longer be a prefix of the
      // complete run. Poison the join instead.
      cancelled_ = true;
      return false;
    }
    self.exhausted = true;
    return false;
  }
  ++self.pulled;
  if (!self.top_seen) {
    self.top_seen = true;
    self.top_score = m->score;
  }
  JoinKey(*m);
  // Probe the other side's table.
  const uint32_t partners = other.keys.Find(key_.data());
  if (partners != FlatTupleSet::kAbsent) {
    for (const GraphMatch& partner : other.groups[partners]) {
      ++stats_.pairs_probed;
      auto joined = Combine(*m, partner);
      if (joined.has_value()) {
        ++stats_.results_formed;
        results_.push(std::move(*joined));
      }
    }
  }
  const auto [group, inserted] = self.keys.Insert(key_.data());
  if (inserted) self.groups.emplace_back();
  self.groups[group].push_back(std::move(*m));
  return true;
}

double RankJoin::Threshold() const {
  // Eq. 4: an unseen join result pairs an unseen match from one side with
  // any (seen or unseen) match from the other. Before a side produced its
  // first match, its top is bounded by its UpperBound.
  const double left_ub = left_.exhausted ? kNegInf : left_.input->UpperBound();
  const double right_ub =
      right_.exhausted ? kNegInf : right_.input->UpperBound();
  const double left_top = left_.top_seen ? left_.top_score : left_ub;
  const double right_top = right_.top_seen ? right_.top_score : right_ub;
  double t = kNegInf;
  if (left_ub != kNegInf && right_top != kNegInf) {
    t = std::max(t, left_ub + right_top);
  }
  if (right_ub != kNegInf && left_top != kNegInf) {
    t = std::max(t, left_top + right_ub);
  }
  // Unseen x unseen pairs. While both streams are live and monotone this
  // term is dominated (each side's bound sits at or below its top seen
  // score), so Eq. 4 is unchanged — but after a cancellation an input's
  // bound may legitimately jump ABOVE its top (the a-priori fallback in
  // StarSearch::UpperBound), and with both sides in that state the two
  // classic terms understate. Certificate readers consume UpperBound()
  // from cancelled pipelines, so the threshold must stay sound there.
  if (left_ub != kNegInf && right_ub != kNegInf) {
    t = std::max(t, left_ub + right_ub);
  }
  return t;
}

std::optional<GraphMatch> RankJoin::Next() {
  while (true) {
    if (cancelled_ || cancel_check_.ShouldStop()) {
      // Buffered results below the threshold may be out of order relative
      // to unseen joins, so the stream simply ends here. cancelled_ may
      // already be set by Pull() observing a cancelled input — the
      // checkpoint's clock stride must not grant extra emissions then.
      cancelled_ = true;
      return std::nullopt;
    }
    const double threshold = Threshold();
    if (!results_.empty() && results_.top().score >= threshold) {
      GraphMatch out = results_.top();
      results_.pop();
      return out;
    }
    if (threshold == kNegInf) {
      // Both inputs exhausted; drain remaining buffered results.
      if (results_.empty()) return std::nullopt;
      GraphMatch out = results_.top();
      results_.pop();
      return out;
    }
    // Pull the side whose term sets the threshold (HRJN's adaptive
    // strategy; see the class comment): U_left + top_right falls only when
    // the left input is pulled, top_left + U_right only when the right one
    // is. Ties go left; a dry side falls back to the other.
    const double left_ub = left_.exhausted ? kNegInf : left_.input->UpperBound();
    const double right_ub =
        right_.exhausted ? kNegInf : right_.input->UpperBound();
    const double left_top = left_.top_seen ? left_.top_score : left_ub;
    const double right_top = right_.top_seen ? right_.top_score : right_ub;
    const bool prefer_left = left_ub + right_top >= left_top + right_ub;
    if (prefer_left) {
      if (!Pull(left_, right_) && !Pull(right_, left_)) continue;
    } else {
      if (!Pull(right_, left_) && !Pull(left_, right_)) continue;
    }
    stats_.left_pulled = left_.pulled;
    stats_.right_pulled = right_.pulled;
  }
}

double RankJoin::UpperBound() const {
  double ub = Threshold();
  if (!results_.empty()) ub = std::max(ub, results_.top().score);
  return ub;
}

}  // namespace star::core
