// Differential wall for sharded serving: N-shard fan-out/merge must be
// *bit-identical* to the single-shard scan — same actions, same scores,
// same order — across the seeded generator sweep, for all four strategies
// (Best Match in all six unweighted variants), on both the pooled (warm
// root workspace + scratch pool) and allocating paths. A metamorphic sweep additionally pins shard-count invariance
// (shards ∈ {1, 2, 3, 7, 16}, hash and modulo partitions, including the
// tie-storm shapes where only the documented (score desc, id asc) order
// distinguishes outputs), and the Breadth dense-reset accumulator is held
// to the same wall with its threshold forced both ways.
//
// Failures print the case seed; reproduce with goalrec_fuzz --seed=<seed>.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/breadth.h"
#include "core/query_workspace.h"
#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "serve/sharded.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace goalrec::testing {
namespace {

// 32 seeds × the 9 generator shapes = 288 cases per strategy (ISSUE 10
// acceptance bar).
constexpr int kWallCasesPerStrategy = 288;
constexpr int kMetamorphicCasesPerStrategy = 90;
constexpr uint64_t kMasterSeed = 20260808;

serve::ShardedStrategy ToSharded(OracleStrategy strategy) {
  switch (strategy) {
    case OracleStrategy::kFocusCompleteness:
      return serve::ShardedStrategy::kFocusCompleteness;
    case OracleStrategy::kFocusCloseness:
      return serve::ShardedStrategy::kFocusCloseness;
    case OracleStrategy::kBreadth:
      return serve::ShardedStrategy::kBreadth;
    case OracleStrategy::kBestMatch:
      return serve::ShardedStrategy::kBestMatch;
  }
  return serve::ShardedStrategy::kBestMatch;
}

DiffOptions Strict() {
  DiffOptions strict;
  strict.strict_order = true;
  strict.score_tolerance = 0.0;
  return strict;
}

class ShardedOracleTest : public ::testing::TestWithParam<OracleStrategy> {};

// The wall: 3-shard fan-out/merge vs the naive reference AND vs the
// unsharded optimized path, pooled and allocating, strict order, zero
// tolerance.
TEST_P(ShardedOracleTest, ShardedMergeIsBitIdenticalToSingleShard) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/31);
  util::ThreadPool pool(3);
  core::QueryWorkspace root_ws;  // reused across ALL cases, like a server
  core::QueryWorkspace unsharded_ws;
  const DiffOptions strict = Strict();
  for (int i = 0; i < kWallCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    for (const core::BestMatchOptions& variant : OracleVariants(GetParam())) {
      serve::ShardedRecommender recommender(sharded, ToSharded(GetParam()),
                                            &pool, variant);
      const std::string name = std::string(OracleStrategyName(GetParam())) +
                               " " + BestMatchVariantName(variant);

      // Pooled path: warm root workspace, scratch pool, parallel fan-out.
      core::RecommendationList pooled;
      recommender.RecommendPooled(c.activity, c.k, /*stop=*/nullptr,
                                  &root_ws, pooled);
      DiffOutcome vs_reference = CompareLists(
          pooled,
          RunReference(library, GetParam(), c.activity, c.k, variant),
          strict);
      ASSERT_TRUE(vs_reference.match)
          << name << " sharded pooled vs reference: " << vs_reference.detail
          << " (case seed " << case_seed << ", shape " << i % shapes.size()
          << ", |H| = " << c.activity.size() << ", k = " << c.k << ")";

      // Allocating path: fresh workspaces, sequential fan-out.
      core::RecommendationList allocating =
          recommender.RecommendCancellable(c.activity, c.k, nullptr);
      ASSERT_EQ(allocating, pooled)
          << name << " sharded allocating vs pooled diverged (case seed "
          << case_seed << ")";

      // And against the unsharded optimized kernel, bit for bit.
      core::RecommendationList unsharded = RunOptimizedPooled(
          library, GetParam(), c.activity, c.k, unsharded_ws, variant);
      ASSERT_EQ(pooled, unsharded)
          << name << " sharded vs unsharded optimized diverged (case seed "
          << case_seed << ")";
    }
  }
}

// Metamorphic shard-count invariance: the merged list must not depend on
// the shard count or the partition policy.
TEST_P(ShardedOracleTest, MergedResultsInvariantAcrossShardCounts) {
  const uint32_t kShardCounts[] = {1, 2, 3, 7, 16};
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/32);
  util::ThreadPool pool(3);
  core::QueryWorkspace root_ws;
  core::QueryWorkspace unsharded_ws;
  for (int i = 0; i < kMetamorphicCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    model::ShardingOptions options;
    options.policy = (i % 2 == 0) ? model::PartitionPolicy::kHashByGoal
                                  : model::PartitionPolicy::kModuloGoal;
    const std::vector<core::BestMatchOptions> variants = OracleVariants(GetParam());
    std::vector<core::RecommendationList> unsharded;
    for (const core::BestMatchOptions& variant : variants) {
      unsharded.push_back(RunOptimizedPooled(library, GetParam(), c.activity,
                                             c.k, unsharded_ws, variant));
    }
    for (uint32_t num_shards : kShardCounts) {
      auto sharded = model::BuildShardedSnapshot(library, num_shards, options);
      for (size_t v = 0; v < variants.size(); ++v) {
        serve::ShardedRecommender recommender(
            sharded, ToSharded(GetParam()), &pool, variants[v]);
        core::RecommendationList merged;
        recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws,
                                    merged);
        ASSERT_EQ(merged, unsharded[v])
            << OracleStrategyName(GetParam()) << " "
            << BestMatchVariantName(variants[v]) << " diverged at "
            << num_shards << " shards, policy "
            << model::PartitionPolicyName(options.policy) << " (case seed "
            << case_seed << ", shape " << i % shapes.size() << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ShardedOracleTest,
    ::testing::ValuesIn(AllOracleStrategies()),
    [](const ::testing::TestParamInfo<OracleStrategy>& info) {
      return std::string(OracleStrategyName(info.param));
    });

// Restores the Breadth dense threshold even when an assertion bails out.
class ScopedDenseMultiplier {
 public:
  explicit ScopedDenseMultiplier(double multiplier)
      : previous_(core::SetBreadthDenseCreditMultiplier(multiplier)) {}
  ~ScopedDenseMultiplier() {
    core::SetBreadthDenseCreditMultiplier(previous_);
  }

 private:
  double previous_;
};

// The Breadth dense memset-reset accumulator, forced on, against the
// reference — unsharded and sharded. The workspace's dense_resets counter
// proves the dense path actually ran.
TEST(BreadthDenseResetOracleTest, ForcedDenseIsBitIdenticalToReference) {
  ScopedDenseMultiplier force_dense(0.0);
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/33);
  core::QueryWorkspace workspace;
  core::QueryWorkspace root_ws;
  const DiffOptions strict = Strict();
  for (int i = 0; i < 120; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    core::RecommendationList dense = RunOptimizedPooled(
        library, OracleStrategy::kBreadth, c.activity, c.k, workspace);
    DiffOutcome vs_reference = CompareLists(
        dense,
        RunReference(library, OracleStrategy::kBreadth, c.activity, c.k),
        strict);
    ASSERT_TRUE(vs_reference.match)
        << "Breadth forced-dense vs reference: " << vs_reference.detail
        << " (case seed " << case_seed << ")";

    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    serve::ShardedRecommender recommender(
        sharded, serve::ShardedStrategy::kBreadth);
    core::RecommendationList merged;
    recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws, merged);
    ASSERT_EQ(merged, dense)
        << "Breadth sharded forced-dense diverged (case seed " << case_seed
        << ")";
  }
  EXPECT_GT(workspace.kernel_stats.dense_resets, 0u);
}

// And forced off: the sparse accumulator stays the reference-identical
// default regardless of the knob's direction.
TEST(BreadthDenseResetOracleTest, ForcedSparseIsBitIdenticalToReference) {
  ScopedDenseMultiplier force_sparse(1e18);
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/34);
  core::QueryWorkspace workspace;
  const DiffOptions strict = Strict();
  for (int i = 0; i < 60; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    core::RecommendationList sparse = RunOptimizedPooled(
        library, OracleStrategy::kBreadth, c.activity, c.k, workspace);
    DiffOutcome vs_reference = CompareLists(
        sparse,
        RunReference(library, OracleStrategy::kBreadth, c.activity, c.k),
        strict);
    ASSERT_TRUE(vs_reference.match)
        << "Breadth forced-sparse vs reference: " << vs_reference.detail
        << " (case seed " << case_seed << ")";
  }
  EXPECT_EQ(workspace.kernel_stats.dense_resets, 0u);
}

}  // namespace
}  // namespace goalrec::testing
