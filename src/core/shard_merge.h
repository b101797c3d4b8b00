#ifndef GOALREC_CORE_SHARD_MERGE_H_
#define GOALREC_CORE_SHARD_MERGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/best_match.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "core/shard_types.h"
#include "model/library.h"
#include "util/deadline.h"

// Root-side recombination of per-shard partial results into the exact
// global recommendation list. Each function is the counterpart of a shard
// entry point (FocusRecommender::EmitShardForMerge,
// BreadthRecommender::AccumulateShard, BestMatchRecommender::
// BuildShardProfile / ShardCandidatePartials) and is proven bit-identical
// to the corresponding unsharded kernel by the oracle differential wall
// (tests/oracle/sharded_test.cc): all partials are exact integers in
// doubles, so recombining them in any order reproduces the single-scan
// arithmetic digit for digit, and every comparator involved is a total
// order. Unweighted strategies only — the shard entry points enforce this.
//
// All functions run on the caller's root workspace (markers, top-k heap,
// profile buffers) and perform no steady-state allocations.

namespace goalrec::core {

/// K-way merges per-shard Focus emission streams (each ordered
/// (score desc, logical impl asc), actions of one implementation adjacent
/// in ascending id order) under the global total order, dedups actions at
/// the root, and stops at `k` — exactly the unsharded Algorithm 1
/// emission. `streams[s]` is shard s's EmitShardForMerge output.
void MergeFocusEmissions(std::span<const std::vector<ShardEmission>> streams,
                         uint32_t num_actions, size_t k,
                         QueryWorkspace& root_ws, RecommendationList& out);

/// Sums per-shard Breadth partials (exact integers) per action and selects
/// the global top-k under (score desc, action id asc). `partials[s]` is
/// shard s's AccumulateShard output; actions in H were excluded at the
/// leaves.
void MergeBreadthPartials(
    std::span<const std::vector<ShardActionScore>> partials,
    uint32_t num_actions, size_t k, QueryWorkspace& root_ws,
    RecommendationList& out);

/// Global Best Match profile state reconstructed from phase-A shard
/// profiles. The merged goal space and aligned profile vector live in the
/// root workspace (goal_space / profile); this struct carries the scalar
/// totals and the global exactness certificate.
struct BestMatchMergeState {
  double s1 = 0.0;
  double s2 = 0.0;
  double max_h = 0.0;
  double norm_h = 0.0;
  /// SparseDistanceIsExact(|GS(H)|, max_h) over the GLOBAL dimensions —
  /// the same predicate the unsharded kernel evaluates.
  bool profile_exact = false;
};

/// Merges phase-A shard profiles: the disjoint sorted slices are k-way
/// merged into root_ws.goal_space / root_ws.profile (global sorted GS(H)
/// with aligned exact-integer profile values), scalar totals are summed /
/// maxed into `state`, and the global candidate union is built into
/// root_ws.candidates (deduped through root_ws's action marker — the
/// leaves already excluded H).
void MergeBestMatchProfiles(std::span<const BestMatchShardProfile> shards,
                            uint32_t num_actions, QueryWorkspace& root_ws,
                            BestMatchMergeState& state);

/// Combines phase-B partials into final distances and the global top-k.
/// `partials[s][i]` is shard s's partial for root_ws.candidates[i] (every
/// inner vector sized to the candidate count). Candidates whose global
/// certificate fails are re-scored densely at the root against `base` —
/// the identical fallback the unsharded kernel takes, counted in
/// root_ws.kernel_stats.dense_fallbacks. Once `stop` fires the list is
/// empty, as in the unsharded kernel. Requires the root workspace state
/// left by MergeBestMatchProfiles.
void ScoreBestMatchCandidates(
    const model::ImplementationLibrary& base,
    GoalVectorRepresentation representation, util::DistanceMetric metric,
    const BestMatchMergeState& state,
    std::span<const std::vector<BestMatchCandidatePartial>> partials, size_t k,
    const util::StopToken* stop, QueryWorkspace& root_ws,
    RecommendationList& out);

}  // namespace goalrec::core

#endif  // GOALREC_CORE_SHARD_MERGE_H_
