#ifndef GOALREC_CORE_BEST_MATCH_H_
#define GOALREC_CORE_BEST_MATCH_H_

#include <vector>

#include "core/goal_weights.h"
#include "core/query_context.h"
#include "core/recommender.h"
#include "core/shard_types.h"
#include "model/library.h"
#include "util/dense_vector.h"

// The Best Match strategy (paper §5.3, Algorithms 3–4): build a goal-based
// user profile — a vector over the user's goal space GS(H) recording how many
// (action, implementation) contributions the activity makes to each goal
// (Eq. 9) — represent every candidate action in the same space (Eq. 8, or the
// boolean variant of Eq. 7), and rank candidates by ascending distance to the
// profile (Eq. 10). It is the policy for users who want actions that mirror
// the effort distribution of their past across *all* goals in their space.

namespace goalrec::core {

/// How an action is embedded in the goal space F_GS(H).
enum class GoalVectorRepresentation {
  /// Eq. 7: a⃗[i] = 1 iff a contributes to goal g_i through ≥1 implementation.
  kBoolean,
  /// Eq. 8 (paper default): a⃗[i] = number of implementations of g_i that
  /// contain a.
  kImplementationCount,
};

/// Exactness certificate for the sparse distance kernel (and for the
/// sharded partial merge, which must evaluate the identical predicate over
/// global totals): true when every intermediate of the distance arithmetic
/// over `dims` goal-space dimensions with entries bounded by `cap` stays an
/// exact integer below 2^53, making the sparse accumulation bit-identical
/// to the dense strict-order walk.
bool SparseDistanceIsExact(size_t dims, double cap);

struct BestMatchOptions {
  GoalVectorRepresentation representation =
      GoalVectorRepresentation::kImplementationCount;
  util::DistanceMetric metric = util::DistanceMetric::kEuclidean;
  /// Optional goal priorities (must outlive the recommender): dimension i of
  /// every goal-space vector is scaled by the weight of goal_space[i],
  /// making mismatches on prioritised goals cost more.
  const GoalWeights* goal_weights = nullptr;
};

class BestMatchRecommender : public Recommender {
 public:
  /// The library must outlive the recommender.
  explicit BestMatchRecommender(const model::ImplementationLibrary* library,
                                BestMatchOptions options = {});

  std::string name() const override { return "BestMatch"; }

  /// Ranked ascending by distance to the profile. ScoredAction::score is the
  /// *negated* distance so that, as everywhere else, higher score = better.
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// Deadline-aware Recommend: the goal-major fold (the strategy's dominant
  /// cost, §5.4) polls `stop` once per goal of GS(H). Once it fires the
  /// result is empty — a half-summed distance never reaches the top-k. With
  /// goal weights the dense per-candidate loop polls instead and returns a
  /// best-effort partial.
  RecommendationList RecommendCancellable(
      const model::Activity& activity, size_t k,
      const util::StopToken* stop) const override;

  /// Zero-allocation serving path: spaces, profile and per-candidate sums
  /// all live on `workspace`'s reusable buffers.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, QueryWorkspace* workspace,
                       RecommendationList& out) const override;

  /// Same result as Recommend, reusing the context's precomputed goal space
  /// and candidate set.
  RecommendationList RecommendInContext(const QueryContext& context,
                                        size_t k) const;

  /// Out-param RecommendInContext: results land in `out` (cleared first).
  void RecommendInContext(const QueryContext& context, size_t k,
                          RecommendationList& out) const;

  /// Algorithm 3 (Get-Goal-Based-Profile): the aggregated user vector H⃗ over
  /// `goal_space` (which must be GoalSpace(activity), sorted).
  util::DenseVector Profile(const model::Activity& activity,
                            const model::IdSet& goal_space) const;

  /// Eq. 7/Eq. 8 embedding of one action over `goal_space` (sorted).
  util::DenseVector ActionVector(model::ActionId action,
                                 const model::IdSet& goal_space) const;

  /// Sharded fan-out, phase A (shard_merge.h): derives this shard's GS(H)
  /// slice and candidate set from the postings scatter, builds the profile
  /// sub-vector over the slice, and records the slice totals the root needs
  /// (Σh, Σh², max h). Goal-colocated partitioning makes the slices
  /// disjoint, so the root reconstructs every global profile quantity by
  /// exact-integer sums/maxes. Leaves the slice's goal→slot map, profile
  /// and H marker in `ws` for ShardCandidatePartials. `activity` must be
  /// normalised. Unweighted recommenders only.
  void BuildShardProfile(util::IdSpan activity, const util::StopToken* stop,
                         QueryWorkspace& ws,
                         BestMatchShardProfile& out) const;

  /// Sharded fan-out, phase B: for every action in `candidates` (the root's
  /// global candidate union, any order), this shard's local posting count
  /// and exact-integer distance partial over its GS(H) slice, aligned with
  /// `candidates` — the unsharded kernel's goal-major fold run over the
  /// slice. Must run on the same workspace as BuildShardProfile, after it,
  /// with no other workspace use in between (it reads the slice state
  /// phase A left behind).
  void ShardCandidatePartials(util::IdSpan candidates,
                              const util::StopToken* stop, QueryWorkspace& ws,
                              std::vector<BestMatchCandidatePartial>& out)
      const;

 private:
  /// ActionVector into a reused buffer (assign, no reallocation once warm).
  void ActionVectorInto(model::ActionId action,
                        std::span<const model::GoalId> goal_space,
                        util::DenseVector& out) const;
  void ProfileInto(util::IdSpan activity,
                   std::span<const model::GoalId> goal_space,
                   util::DenseVector& out, util::DenseVector& scratch) const;
  /// The goal-major fold shared by RecommendOver and
  /// ShardCandidatePartials: for each goal of `goal_space` in slot order,
  /// counts c_a[g] for every candidate indexed in `ws` (BeginCandidatePass /
  /// SetCandidateIndex, indices < `num_candidates`), then folds the goal's
  /// metric term into ws.fold_x / ws.fold_y — Euclidean (h−c)²−h²,
  /// Manhattan |h−c|−h, cosine h·c and c². Polls `stop` once per goal and
  /// returns false once it fires, leaving the accumulators half-summed.
  bool FoldGoals(std::span<const model::GoalId> goal_space,
                 std::span<const double> profile, size_t num_candidates,
                 const util::StopToken* stop, QueryWorkspace& ws) const;
  void RecommendOver(util::IdSpan activity,
                     std::span<const model::GoalId> goal_space,
                     util::IdSpan candidates, size_t k,
                     const util::StopToken* stop, QueryWorkspace& workspace,
                     RecommendationList& out) const;

  const model::ImplementationLibrary* library_;
  BestMatchOptions options_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_BEST_MATCH_H_
