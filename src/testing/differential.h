#ifndef GOALREC_TESTING_DIFFERENTIAL_H_
#define GOALREC_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/best_match.h"
#include "core/recommender.h"
#include "model/library.h"
#include "model/types.h"
#include "testing/reference.h"

// Differential harness: runs an optimized src/core/ strategy and its naive
// reference (testing/reference.h) on the same case and compares the ranked
// lists. Used by tests/oracle/ and the goalrec_fuzz driver; every hot-path
// PR (batching, caching, sharded scoring) runs against this harness.
//
// Comparison semantics. Both sides promise a deterministic total order
// (score descending, ties by ascending action id — for Focus, by the
// Algorithm 1 emission order), and without goal weights their arithmetic is
// bit-identical (see reference.h), so the default comparison demands exact
// positional equality of (action, score) pairs. The tie-break-aware mode
// relaxes only the order *within* runs of equal scores — the relaxation to
// use when a refactor legitimately reorders tied actions (the contract pins
// scores, membership and score runs, not intra-tie order).

namespace goalrec::testing {

/// The four paper strategies under differential test.
enum class OracleStrategy {
  kFocusCompleteness,  // Focus_cmp
  kFocusCloseness,     // Focus_cl
  kBreadth,
  kBestMatch,
};

/// All four, in a stable order.
std::vector<OracleStrategy> AllOracleStrategies();

/// Stable display/CLI name: "Focus_cmp", "Focus_cl", "Breadth", "BestMatch".
const char* OracleStrategyName(OracleStrategy strategy);

/// Inverse of OracleStrategyName; nullopt for unknown names.
std::optional<OracleStrategy> OracleStrategyFromName(std::string_view name);

/// The six unweighted Best Match configurations: {count, boolean} vectors ×
/// {Euclidean, Manhattan, cosine} distance, the paper default (count,
/// Euclidean — a default-constructed BestMatchOptions) first.
std::vector<core::BestMatchOptions> AllBestMatchVariants();

/// Display name, e.g. "count/euclidean", "boolean/cosine".
std::string BestMatchVariantName(const core::BestMatchOptions& variant);

/// The configurations a differential sweep runs `strategy` in: all six
/// variants for Best Match, the (ignored) default for the others.
std::vector<core::BestMatchOptions> OracleVariants(OracleStrategy strategy);

struct DiffOptions {
  /// When true, runs of equal scores must match element-for-element; when
  /// false (default) tied actions may appear in any order within their run.
  bool strict_order = false;
  /// Absolute score tolerance. 0 (default) demands bitwise-equal scores,
  /// which the goal-weight-free strategies satisfy by construction.
  double score_tolerance = 0.0;
};

/// Outcome of one comparison. `detail` is a human-readable description of
/// the first divergence (empty on match).
struct DiffOutcome {
  bool match = true;
  std::string detail;
};

/// Compares an optimized list against the reference list.
DiffOutcome CompareLists(const core::RecommendationList& optimized,
                         const ReferenceList& reference,
                         const DiffOptions& options = {});

/// Runs the optimized src/core/ strategy (no goal weights; Best Match in
/// `variant`, which must be unweighted).
core::RecommendationList RunOptimized(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k,
    const core::BestMatchOptions& variant = {});

/// Runs the optimized strategy through the pooled-workspace serving path
/// (RecommendPooled over a caller-owned, reused QueryWorkspace) — the
/// zero-allocation route a ServingEngine query takes. Must be bit-identical
/// to RunOptimized; tests/oracle/snapshot_test.cc holds it to that.
core::RecommendationList RunOptimizedPooled(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k, core::QueryWorkspace& workspace,
    const core::BestMatchOptions& variant = {});

/// Runs the naive reference for the same configuration.
ReferenceList RunReference(const model::ImplementationLibrary& library,
                           OracleStrategy strategy,
                           const model::Activity& activity, size_t k,
                           const core::BestMatchOptions& variant = {});

/// Optimized-vs-reference on one case; the workhorse of the oracle tests,
/// the fuzz loop and the shrinker's failure predicate.
DiffOutcome DiffStrategy(const model::ImplementationLibrary& library,
                         OracleStrategy strategy,
                         const model::Activity& activity, size_t k,
                         const DiffOptions& options = {},
                         const core::BestMatchOptions& variant = {});

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_DIFFERENTIAL_H_
