#include "core/shard_merge.h"

#include <algorithm>
#include <cmath>

#include "util/dense_vector.h"
#include "util/logging.h"

namespace goalrec::core {
namespace {

// Index of `goal` within the sorted global goal space, or -1 when absent —
// the same binary search the unsharded kernel's dense fallback performs.
int64_t GoalIndex(std::span<const model::GoalId> goal_space,
                  model::GoalId goal) {
  auto it = std::lower_bound(goal_space.begin(), goal_space.end(), goal);
  if (it == goal_space.end() || *it != goal) return -1;
  return it - goal_space.begin();
}

// BestMatchRecommender::ActionVectorInto replicated over the BASE library
// for the root's dense fallback: same posting walk, same binary search,
// same idempotent-or-counting writes, no goal weights (the sharded path is
// unweighted by construction) — hence the bit-identical embedding.
void ActionVectorInto(const model::ImplementationLibrary& base,
                      GoalVectorRepresentation representation,
                      model::ActionId action,
                      std::span<const model::GoalId> goal_space,
                      util::DenseVector& out) {
  out.assign(goal_space.size(), 0.0);
  for (model::ImplId p : base.ImplsOfAction(action)) {
    int64_t idx = GoalIndex(goal_space, base.GoalOf(p));
    if (idx < 0) continue;  // goal outside F_GS(H)
    if (representation == GoalVectorRepresentation::kBoolean) {
      out[static_cast<size_t>(idx)] = 1.0;
    } else {
      out[static_cast<size_t>(idx)] += 1.0;
    }
  }
}

}  // namespace

void MergeFocusEmissions(std::span<const std::vector<ShardEmission>> streams,
                         uint32_t num_actions, size_t k,
                         QueryWorkspace& root_ws, RecommendationList& out) {
  out.clear();
  if (k == 0) return;
  // Cursor per stream, kept in the workspace's id scratch (no allocation
  // once warm). Shard counts are small, so a linear scan for the best head
  // beats heap bookkeeping.
  root_ws.scratch.assign(streams.size(), 0);
  root_ws.BeginActionPass(num_actions);
  for (;;) {
    size_t best = streams.size();
    for (size_t s = 0; s < streams.size(); ++s) {
      if (root_ws.scratch[s] >= streams[s].size()) continue;  // drained
      if (best == streams.size()) {
        best = s;
        continue;
      }
      const ShardEmission& a = streams[s][root_ws.scratch[s]];
      const ShardEmission& b = streams[best][root_ws.scratch[best]];
      // Global emission order: (score desc, logical impl asc). A logical
      // implementation lives on exactly one shard, so heads of different
      // streams never tie on both keys.
      if (a.score > b.score ||
          (a.score == b.score && a.logical_impl < b.logical_impl)) {
        best = s;
      }
    }
    if (best == streams.size()) return;  // all streams drained
    const ShardEmission& e = streams[best][root_ws.scratch[best]++];
    // Root dedup: the action may already have been emitted via a globally
    // better implementation on another shard. (H was filtered at the
    // leaves.)
    if (!root_ws.TestAndMark(e.action)) continue;
    out.push_back(ScoredAction{e.action, e.score});
    if (out.size() == k) return;
  }
}

void MergeBreadthPartials(
    std::span<const std::vector<ShardActionScore>> partials,
    uint32_t num_actions, size_t k, QueryWorkspace& root_ws,
    RecommendationList& out) {
  out.clear();
  if (k == 0) return;
  // Per-action sums of exact integers: order-free, so a flat accumulation
  // across shards reproduces the unsharded Eq. 6 totals digit for digit.
  root_ws.BeginActionPass(num_actions);
  for (const std::vector<ShardActionScore>& shard : partials) {
    for (const ShardActionScore& entry : shard) {
      root_ws.AddScore(entry.action, entry.score);
    }
  }
  // Total order (score desc, action id asc): independent of touch order.
  root_ws.top_k.Reset(k);
  for (model::ActionId a : root_ws.touched()) {
    double score = root_ws.ScoreOf(a);
    if (score <= 0.0) continue;
    root_ws.top_k.Push(score, a);
  }
  root_ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
}

void MergeBestMatchProfiles(std::span<const BestMatchShardProfile> shards,
                            uint32_t num_actions, QueryWorkspace& root_ws,
                            BestMatchMergeState& state) {
  state = BestMatchMergeState{};
  // Candidate union through the root's action marker; the leaves already
  // excluded H. Order is shard-major, which is deterministic for a given
  // shard count and immaterial to the result (the final top-k comparator
  // is a total order).
  root_ws.BeginActionPass(num_actions);
  root_ws.candidates.clear();
  for (const BestMatchShardProfile& shard : shards) {
    for (model::ActionId a : shard.candidates) {
      if (root_ws.TestAndMark(a)) root_ws.candidates.push_back(a);
    }
  }
  // The slices are sorted and pairwise disjoint (each goal lives on one
  // shard), so a k-way merge by goal id reassembles the global sorted
  // GS(H) with its aligned profile values. Cursors live in scratch.
  root_ws.scratch.assign(shards.size(), 0);
  root_ws.goal_space.clear();
  size_t total = 0;
  for (const BestMatchShardProfile& shard : shards) total += shard.goals.size();
  root_ws.profile.assign(total, 0.0);
  size_t filled = 0;
  for (;;) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (root_ws.scratch[s] >= shards[s].goals.size()) continue;  // drained
      if (best == shards.size() ||
          shards[s].goals[root_ws.scratch[s]] <
              shards[best].goals[root_ws.scratch[best]]) {
        best = s;
      }
    }
    if (best == shards.size()) break;
    uint32_t cursor = root_ws.scratch[best]++;
    root_ws.goal_space.push_back(shards[best].goals[cursor]);
    root_ws.profile[filled++] = shards[best].h[cursor];
  }
  // Scalar totals: sums/maxes of exact integers (exact whenever the
  // certificate that gates their use passes).
  for (const BestMatchShardProfile& shard : shards) {
    state.s1 += shard.s1;
    state.s2 += shard.s2;
    state.max_h = std::max(state.max_h, shard.max_h);
  }
  state.norm_h = std::sqrt(state.s2);
  state.profile_exact =
      SparseDistanceIsExact(root_ws.goal_space.size(), state.max_h);
}

void ScoreBestMatchCandidates(
    const model::ImplementationLibrary& base,
    GoalVectorRepresentation representation, util::DistanceMetric metric,
    const BestMatchMergeState& state,
    std::span<const std::vector<BestMatchCandidatePartial>> partials, size_t k,
    const util::StopToken* stop, QueryWorkspace& root_ws,
    RecommendationList& out) {
  out.clear();
  if (k == 0) return;
  const size_t n = root_ws.goal_space.size();
  if (n == 0) return;  // empty goal space ⇒ empty list, as unsharded
  const size_t num_candidates = root_ws.candidates.size();
  for (const std::vector<BestMatchCandidatePartial>& shard : partials) {
    GOALREC_CHECK(shard.size() == num_candidates);
  }
  // A shard whose fold stopped left half-summed partials; its stop token is
  // a copy of `stop`, so the unstrided check here sees the same stop.
  if (stop != nullptr && stop->StopRequested()) return;
  root_ws.top_k.Reset(k);
  for (size_t i = 0; i < num_candidates; ++i) {
    const model::ActionId a = root_ws.candidates[i];
    uint64_t total_postings = 0;
    for (const std::vector<BestMatchCandidatePartial>& shard : partials) {
      total_postings += shard[i].postings;
    }
    // The unsharded kernel's cap is the BASE library's posting count —
    // which equals the sum of per-shard counts, every implementation
    // living on exactly one shard.
    double cap =
        std::max(state.max_h, static_cast<double>(total_postings));
    if (!state.profile_exact || !SparseDistanceIsExact(n, cap)) {
      // Same escape hatch as the unsharded kernel: embed the candidate
      // densely over the global goal space (base library postings) and
      // take the strict-order distance. A stop here, too, emits nothing.
      if (stop != nullptr && stop->ShouldStop()) return;
      ++root_ws.kernel_stats.dense_fallbacks;
      ActionVectorInto(base, representation, a, root_ws.goal_space,
                       root_ws.action_vec);
      root_ws.top_k.Push(
          -util::Distance(root_ws.profile, root_ws.action_vec, metric), a);
      continue;
    }
    double distance = 0.0;
    switch (metric) {
      case util::DistanceMetric::kEuclidean: {
        // Σ_i (h_i − c_i)² = Σh² + Σ_shards Σ_touched ((h−c)² − h²): every
        // term is an exact integer, so the regrouped sum is the same real
        // number — hence the same double — as the unsharded accumulation.
        double d2 = state.s2;
        for (const std::vector<BestMatchCandidatePartial>& shard : partials) {
          d2 += shard[i].x;
        }
        distance = std::sqrt(d2);
        break;
      }
      case util::DistanceMetric::kManhattan: {
        double m = state.s1;
        for (const std::vector<BestMatchCandidatePartial>& shard : partials) {
          m += shard[i].x;
        }
        distance = m;
        break;
      }
      case util::DistanceMetric::kCosine: {
        double dot = 0.0, c2 = 0.0;
        for (const std::vector<BestMatchCandidatePartial>& shard : partials) {
          dot += shard[i].x;
          c2 += shard[i].y;
        }
        double nb = std::sqrt(c2);
        // Same expression shape and operands as the unsharded kernel.
        double sim = (state.norm_h == 0.0 || nb == 0.0)
                         ? 0.0
                         : dot / (state.norm_h * nb);
        distance = 1.0 - sim;
        break;
      }
    }
    root_ws.top_k.Push(-distance, a);
  }
  root_ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
}

}  // namespace goalrec::core
