// Best Match's goal-major kernel under the oracle:
//
//   * the FoodMart-shaped long-prefix family (one goal per implementation,
//     action connectivity in the hundreds, |H| up to 12) in all six
//     unweighted variants on the allocating, pooled and sharded paths — the
//     long carts the serving benchmark's oracle gate cannot afford to check;
//   * the kernel's work counter: kernel_stats.slots_touched is exactly the
//     number of (candidate, goal) pairs with c_a[g] > 0 in the reference
//     goal vectors, unsharded and summed over shards;
//   * the candidate-index epoch's uint32 wraparound grounding;
//   * stop semantics: a fold stopped part-way emits nothing.
//
// Failures print the case seed; regenerate the case with GenerateCase and
// the shape named in the message.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/query_workspace.h"
#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "serve/sharded.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/deadline.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/thread_pool.h"

namespace goalrec::testing {
namespace {

constexpr uint64_t kMasterSeed = 20261020;
constexpr int kLongPrefixCases = 48;

DiffOptions Strict() {
  DiffOptions strict;
  strict.strict_order = true;
  return strict;
}

// (candidate, goal) pairs with a non-zero reference goal-vector entry.
uint64_t ReferenceNonZeroPairs(const model::ImplementationLibrary& library,
                               const model::Activity& activity) {
  std::vector<model::GoalId> goal_space =
      ReferenceGoalSpace(library, activity);
  if (goal_space.empty()) return 0;  // the kernel returns before scoring
  uint64_t pairs = 0;
  for (model::ActionId a : ReferenceCandidates(library, activity)) {
    for (double entry : ReferenceActionGoalVector(library, a, goal_space)) {
      if (entry > 0.0) ++pairs;
    }
  }
  return pairs;
}

TEST(LongPrefixOracleTest, FoodMartShapedCasesMatchReferenceInAllVariants) {
  const CaseShape shape = FoodMartShapedCaseShape();
  util::Rng seeds(kMasterSeed, /*stream=*/41);
  util::ThreadPool pool(3);
  core::QueryWorkspace workspace;  // reused across all cases and variants
  core::QueryWorkspace root_ws;
  const DiffOptions strict = Strict();
  size_t max_h = 0;
  size_t max_postings = 0;
  for (int i = 0; i < kLongPrefixCases; ++i) {
    const uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(shape, case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    max_h = std::max(max_h, c.activity.size());
    for (model::ActionId a = 0; a < library.num_actions(); ++a) {
      max_postings = std::max(max_postings, library.ImplsOfAction(a).size());
    }
    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    for (const core::BestMatchOptions& variant : AllBestMatchVariants()) {
      const std::string where = BestMatchVariantName(variant) +
                                " (case seed " + std::to_string(case_seed) +
                                ", |H| = " +
                                std::to_string(c.activity.size()) +
                                ", k = " + std::to_string(c.k) + ")";
      ReferenceList reference = RunReference(
          library, OracleStrategy::kBestMatch, c.activity, c.k, variant);

      DiffOutcome allocating = CompareLists(
          RunOptimized(library, OracleStrategy::kBestMatch, c.activity, c.k,
                       variant),
          reference, strict);
      ASSERT_TRUE(allocating.match)
          << "allocating: " << allocating.detail << " " << where;

      DiffOutcome pooled = CompareLists(
          RunOptimizedPooled(library, OracleStrategy::kBestMatch, c.activity,
                             c.k, workspace, variant),
          reference, strict);
      ASSERT_TRUE(pooled.match) << "pooled: " << pooled.detail << " " << where;

      serve::ShardedRecommender recommender(
          sharded, serve::ShardedStrategy::kBestMatch, &pool,
          variant);
      core::RecommendationList merged;
      recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws, merged);
      DiffOutcome sharded_outcome = CompareLists(merged, reference, strict);
      ASSERT_TRUE(sharded_outcome.match)
          << "sharded: " << sharded_outcome.detail << " " << where;
    }
  }
  // The family is what it claims to be: long prefixes over hub actions.
  EXPECT_GE(max_h, 10u);
  EXPECT_GE(max_postings, 300u);
}

TEST(BestMatchKernelTest, SlotsTouchedCountsNonZeroCandidateGoalPairs) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  shapes.push_back(FoodMartShapedCaseShape());
  util::Rng seeds(kMasterSeed, /*stream=*/42);
  util::ThreadPool pool(3);
  core::QueryWorkspace workspace;
  core::QueryWorkspace root_ws;
  for (size_t i = 0; i < shapes.size() * 8; ++i) {
    const uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(shapes[i % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    const uint64_t expected = ReferenceNonZeroPairs(library, c.activity);
    SCOPED_TRACE("case seed " + std::to_string(case_seed) + ", shape " +
                 std::to_string(i % shapes.size()));

    // The count does not depend on the representation: a boolean entry is
    // non-zero exactly where the count entry is.
    for (core::GoalVectorRepresentation representation :
         {core::GoalVectorRepresentation::kImplementationCount,
          core::GoalVectorRepresentation::kBoolean}) {
      core::BestMatchOptions options;
      options.representation = representation;
      core::BestMatchRecommender best_match(&library, options);
      core::RecommendationList out;
      workspace.kernel_stats = {};
      best_match.RecommendPooled(c.activity, c.k, nullptr, &workspace, out);
      EXPECT_EQ(workspace.kernel_stats.slots_touched, expected);
      EXPECT_EQ(workspace.kernel_stats.dense_fallbacks, 0u);
    }

    // Goal colocation splits the same pairs across shards.
    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    serve::ShardedRecommender recommender(
        sharded, serve::ShardedStrategy::kBestMatch, &pool);
    core::RecommendationList merged;
    root_ws.kernel_stats = {};
    recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws, merged);
    EXPECT_EQ(root_ws.kernel_stats.slots_touched, expected);
  }
}

TEST(BestMatchKernelTest, CandidateEpochWrapsAroundAndRegrounds) {
  core::QueryWorkspace ws;
  ws.BeginCandidatePass(8);
  ws.SetCandidateIndex(3, 7);
  ASSERT_EQ(ws.candidate_epoch(), 1u);
  ASSERT_EQ(ws.CandidateIndexOf(3), 7u);
  // The next pass wraps the epoch to 0 and must re-ground to 1 — where the
  // stale stamp on action 3 would otherwise read as live again.
  ws.SetCandidateEpochForTesting(std::numeric_limits<uint32_t>::max());
  ws.BeginCandidatePass(8);
  EXPECT_EQ(ws.candidate_epoch(), 1u);
  EXPECT_EQ(ws.CandidateIndexOf(3), core::QueryWorkspace::kNoCandidate);
  for (model::ActionId a = 0; a < 8; ++a) {
    EXPECT_EQ(ws.CandidateIndexOf(a), core::QueryWorkspace::kNoCandidate);
  }
}

// Query A leaves epoch-1 stamps on its candidates. Query B performs one of
// them, then runs with the epoch forced to wrap back to 1: an ungrounded
// array would treat that performed action as a candidate again.
TEST(BestMatchKernelTest, KernelAnswersExactlyAcrossCandidateEpochWrap) {
  const CaseShape shape = FoodMartShapedCaseShape();
  util::Rng seeds(kMasterSeed, /*stream=*/43);
  const DiffOptions strict = Strict();
  int checked = 0;
  for (int i = 0; i < 16; ++i) {
    const uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(shape, case_seed);
    std::vector<model::ActionId> candidates =
        ReferenceCandidates(c.library, c.activity);
    if (candidates.empty()) continue;
    model::Activity b = c.activity;
    b.push_back(candidates.front());
    util::Normalize(b);

    core::QueryWorkspace ws;
    core::BestMatchRecommender best_match(&c.library);
    core::RecommendationList out;
    best_match.RecommendPooled(c.activity, c.k, nullptr, &ws, out);
    ASSERT_EQ(ws.candidate_epoch(), 1u);
    ws.SetCandidateEpochForTesting(std::numeric_limits<uint32_t>::max());
    best_match.RecommendPooled(b, c.k, nullptr, &ws, out);
    EXPECT_EQ(ws.candidate_epoch(), 1u);
    DiffOutcome outcome = CompareLists(
        out, RunReference(c.library, OracleStrategy::kBestMatch, b, c.k),
        strict);
    ASSERT_TRUE(outcome.match)
        << outcome.detail << " (case seed " << case_seed << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// A stop token with an expired deadline and stride 2 lets the first poll
// pass and fires on the second: the fold has summed goal 0 only.
TEST(BestMatchKernelTest, FoldStoppedPartWayEmitsNothing) {
  OracleCase c = GenerateCase(FoodMartShapedCaseShape(), kMasterSeed);
  c.activity.assign(c.library.ActionsOf(0).begin(),
                    c.library.ActionsOf(0).begin() + 3);
  for (const core::BestMatchOptions& variant : AllBestMatchVariants()) {
    SCOPED_TRACE(BestMatchVariantName(variant));
    core::BestMatchRecommender best_match(&c.library, variant);
    core::QueryWorkspace ws;
    core::RecommendationList out;
    util::StopToken stop(util::Deadline::AfterMillis(0), {}, /*stride=*/2);
    best_match.RecommendPooled(c.activity, 10, &stop, &ws, out);
    EXPECT_TRUE(out.empty());
    EXPECT_GT(ws.kernel_stats.slots_touched, 0u);  // goal 0 was folded

    util::StopToken fresh(util::Deadline::AfterMillis(0), {}, /*stride=*/2);
    EXPECT_TRUE(
        best_match.RecommendCancellable(c.activity, 10, &fresh).empty());

    // Sharded: every shard folds under a copy of the token; the root sees
    // the stop and emits nothing either.
    auto snapshot = model::MakeSnapshot(c.library);
    serve::ShardedRecommender recommender(
        model::BuildShardedSnapshot(snapshot->library, /*num_shards=*/3),
        serve::ShardedStrategy::kBestMatch, nullptr, variant);
    util::StopToken shard_stop(util::Deadline::AfterMillis(0), {},
                               /*stride=*/2);
    core::RecommendationList merged;
    recommender.RecommendPooled(c.activity, 10, &shard_stop, &ws, merged);
    EXPECT_TRUE(merged.empty());
  }
}

}  // namespace
}  // namespace goalrec::testing
