#include "core/best_match.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/top_k.h"

namespace goalrec::core {
namespace {

// Index of `goal` within the sorted goal space, or -1 when absent.
int64_t GoalIndex(std::span<const model::GoalId> goal_space,
                  model::GoalId goal) {
  auto it = std::lower_bound(goal_space.begin(), goal_space.end(), goal);
  if (it == goal_space.end() || *it != goal) return -1;
  return it - goal_space.begin();
}

}  // namespace

// Unweighted goal-space vectors hold small non-negative integers, and
// doubles add, subtract and multiply integers exactly while every
// intermediate stays below 2^53 — under that bound the dense strict-order
// accumulation and the sparse touched-slots-only accumulation compute the
// *same real number*, hence the same double, and the kernel is
// bit-identical to the reference walk. `dims` is the goal-space size and
// `cap` bounds every vector entry; the 8·n margin generously covers the
// worst intermediate (≈ 3·n·cap²). Declared in the header because the
// sharded root merge must evaluate the identical predicate over the global
// dimensions and posting totals.
bool SparseDistanceIsExact(size_t dims, double cap) {
  return (8.0 * static_cast<double>(dims) + 8.0) * cap * cap < 9.0e15;
}

BestMatchRecommender::BestMatchRecommender(
    const model::ImplementationLibrary* library, BestMatchOptions options)
    : library_(library), options_(options) {
  GOALREC_CHECK(library_ != nullptr);
}

void BestMatchRecommender::ActionVectorInto(
    model::ActionId action, std::span<const model::GoalId> goal_space,
    util::DenseVector& out) const {
  out.assign(goal_space.size(), 0.0);
  for (model::ImplId p : library_->ImplsOfAction(action)) {
    int64_t idx = GoalIndex(goal_space, library_->GoalOf(p));
    if (idx < 0) continue;  // goal outside F_GS(H)
    if (options_.representation == GoalVectorRepresentation::kBoolean) {
      out[static_cast<size_t>(idx)] = 1.0;
    } else {
      out[static_cast<size_t>(idx)] += 1.0;
    }
  }
  if (options_.goal_weights != nullptr) {
    for (size_t i = 0; i < goal_space.size(); ++i) {
      out[i] *= options_.goal_weights->WeightOf(goal_space[i]);
    }
  }
}

util::DenseVector BestMatchRecommender::ActionVector(
    model::ActionId action, const model::IdSet& goal_space) const {
  util::DenseVector vec;
  ActionVectorInto(action, goal_space, vec);
  return vec;
}

void BestMatchRecommender::ProfileInto(util::IdSpan activity,
                                       std::span<const model::GoalId> goal_space,
                                       util::DenseVector& out,
                                       util::DenseVector& scratch) const {
  // Eq. 9: H⃗ = Σ_{a ∈ H} a⃗. Identical to Algorithm 3's single map-building
  // pass when the representation is kImplementationCount.
  out.assign(goal_space.size(), 0.0);
  for (model::ActionId a : activity) {
    ActionVectorInto(a, goal_space, scratch);
    util::AddInPlace(out, scratch);
  }
}

util::DenseVector BestMatchRecommender::Profile(
    const model::Activity& activity, const model::IdSet& goal_space) const {
  util::DenseVector profile;
  util::DenseVector scratch;
  ProfileInto(activity, goal_space, profile, scratch);
  return profile;
}

RecommendationList BestMatchRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  return RecommendCancellable(activity, k, nullptr);
}

RecommendationList BestMatchRecommender::RecommendCancellable(
    const model::Activity& activity, size_t k,
    const util::StopToken* stop) const {
  QueryContext context = QueryContext::Create(*library_, activity, stop);
  return RecommendInContext(context, k);
}

void BestMatchRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                           const util::StopToken* stop,
                                           QueryWorkspace* workspace,
                                           RecommendationList& out) const {
  if (workspace == nullptr) {
    out = RecommendCancellable(
        model::Activity(activity.begin(), activity.end()), k, stop);
    return;
  }
  // Build GS(H) and AS(H) − H straight from the postings scatter: one
  // per-implementation counting pass gives IS(H); goals dedup through the
  // goal marker, candidates through the action marker. Same sets as
  // QueryContext::Create, without materialising IS(H)'s sorted union or the
  // candidate sort (the top-k order is total, so candidate order is free).
  QueryWorkspace& ws = *workspace;
  ws.activity.assign(activity.begin(), activity.end());
  util::Normalize(ws.activity);
  const uint32_t num_actions = library_->num_actions();
  ws.BeginHMark(num_actions);
  ws.BeginImplPass(library_->num_implementations());
  for (model::ActionId h : ws.activity) {
    if (h >= num_actions) continue;  // action unseen by the library
    ws.MarkH(h);
    for (model::ImplId p : library_->ImplsOfAction(h)) ws.BumpImplCount(p);
  }
  ws.BeginGoalPass(library_->num_goals());
  ws.goal_space.clear();
  for (model::ImplId p : ws.touched_impls()) {
    model::GoalId g = library_->GoalOf(p);
    if (ws.GoalSlotOf(g) == QueryWorkspace::kNoSlot) {
      ws.SetGoalSlot(g, 0);
      ws.goal_space.push_back(g);
    }
  }
  std::sort(ws.goal_space.begin(), ws.goal_space.end());
  ws.BeginActionPass(num_actions);
  ws.candidates.clear();
  for (model::ImplId p : ws.touched_impls()) {
    for (model::ActionId a : library_->ActionsOf(p)) {
      if (ws.InH(a)) continue;
      if (ws.TestAndMark(a)) ws.candidates.push_back(a);
    }
  }
  RecommendOver(ws.activity, ws.goal_space, ws.candidates, k, stop, ws, out);
}

RecommendationList BestMatchRecommender::RecommendInContext(
    const QueryContext& context, size_t k) const {
  RecommendationList list;
  RecommendInContext(context, k, list);
  return list;
}

void BestMatchRecommender::RecommendInContext(const QueryContext& context,
                                              size_t k,
                                              RecommendationList& out) const {
  GOALREC_CHECK(context.library == library_);
  GOALREC_CHECK(context.workspace != nullptr);
  RecommendOver(context.activity, context.goal_space, context.candidates, k,
                context.stop, *context.workspace, out);
}

// The scoring kernel. The dense evaluation embeds every candidate as a full
// |GS(H)|-dimensional vector and walks all of it per distance; the kernel
// exploits that a candidate touches only the goals it contributes to:
//
//   * an epoch-stamped goal → slot map replaces the per-posting binary
//     search into the sorted goal space;
//   * the profile is built by one sparse scatter over H's postings
//     (bit-identical: integer counts accumulate exactly in doubles);
//   * the candidate vectors come from one goal-major fold (FoldGoals) that
//     walks only the implementations of GS(H)'s goals, and each distance is
//     finished from whole-profile totals — Euclidean from Σh², Manhattan
//     from Σh, cosine from ‖H⃗‖ — all exact-integer arithmetic certified by
//     SparseDistanceIsExact, so the result is the bit-identical double the
//     dense strict-order walk produces. Candidates that exceed the
//     certificate (astronomically large counts) fall back to the dense
//     walk.
//
// Goal weights scale dimensions by arbitrary doubles, which breaks the
// exact-integer argument, so the weighted path keeps the dense evaluation.
void BestMatchRecommender::RecommendOver(
    util::IdSpan activity, std::span<const model::GoalId> goal_space,
    util::IdSpan candidates, size_t k, const util::StopToken* stop,
    QueryWorkspace& ws, RecommendationList& out) const {
  obs::ScopedSpan span(obs::CurrentTrace(), "strategy/BestMatch");
  span.Annotate("goal_space", goal_space.size());
  span.Annotate("candidates", candidates.size());
  out.clear();
  if (k == 0) return;
  if (goal_space.empty()) return;

  if (options_.goal_weights != nullptr) {
    ProfileInto(activity, goal_space, ws.profile, ws.action_vec);
    ws.top_k.Reset(k);
    for (model::ActionId a : candidates) {
      if (stop != nullptr && stop->ShouldStop()) break;  // best-effort partial
      ActionVectorInto(a, goal_space, ws.action_vec);
      double distance = util::Distance(ws.profile, ws.action_vec,
                                       options_.metric);
      // Negate: smaller distance ranks first under the shared
      // higher-score-wins comparator.
      ws.top_k.Push(-distance, a);
    }
    ws.top_k.TakeInto([&out](double score, uint32_t id) {
      out.push_back(ScoredAction{id, score});
    });
    span.Annotate("emitted", out.size());
    if (stop != nullptr && stop->StopRequested()) {
      span.Annotate("stopped_early", true);
    }
    return;
  }

  const size_t n = goal_space.size();
  const uint32_t num_actions = library_->num_actions();
  const bool boolean =
      options_.representation == GoalVectorRepresentation::kBoolean;

  ws.BeginGoalPass(library_->num_goals());
  for (size_t i = 0; i < n; ++i) {
    ws.SetGoalSlot(goal_space[i], static_cast<uint32_t>(i));
  }

  // Sparse profile scatter. slot_stamp deduplicates per-action goal hits for
  // the boolean representation (ActionVectorInto's idempotent 1.0 per
  // action).
  ws.profile.assign(n, 0.0);
  ws.slot_stamp.assign(n, 0);
  uint32_t stamp = 0;
  for (model::ActionId a : activity) {
    if (a >= num_actions) continue;  // action unseen by the library
    ++stamp;
    for (model::ImplId p : library_->ImplsOfAction(a)) {
      uint32_t slot = ws.GoalSlotOf(library_->GoalOf(p));
      if (slot == QueryWorkspace::kNoSlot) continue;  // goal outside F_GS(H)
      if (boolean && ws.slot_stamp[slot] == stamp) continue;
      ws.slot_stamp[slot] = stamp;
      ws.profile[slot] += 1.0;
    }
  }

  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kScatter),
      static_cast<uint32_t>(activity.size()));

  // Whole-profile totals (exact integers; ‖H⃗‖ matches util::Norm2 bitwise
  // because Σh² is the same exact integer either way).
  double max_h = 0.0, s1 = 0.0, s2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double h = ws.profile[i];
    max_h = std::max(max_h, h);
    s1 += h;
    s2 += h * h;
  }
  const double norm_h = std::sqrt(s2);
  const util::DistanceMetric metric = options_.metric;

  // Index the candidates the certificate admits; the fold skips the rest,
  // which take the dense walk below. A candidate's entries are bounded by
  // its posting count.
  ws.BeginCandidatePass(num_actions);
  if (SparseDistanceIsExact(n, max_h)) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      double cap = std::max(
          max_h,
          static_cast<double>(library_->ImplsOfAction(candidates[i]).size()));
      if (SparseDistanceIsExact(n, cap)) {
        ws.SetCandidateIndex(candidates[i], static_cast<uint32_t>(i));
      }
    }
  }
  bool stopped = !FoldGoals(goal_space, ws.profile, candidates.size(), stop,
                            ws);

  ws.top_k.Reset(k);
  for (size_t i = 0; i < candidates.size() && !stopped; ++i) {
    const model::ActionId a = candidates[i];
    if (ws.CandidateIndexOf(a) == QueryWorkspace::kNoCandidate) {
      if (stop != nullptr && stop->ShouldStop()) {
        stopped = true;
        break;
      }
      ++ws.kernel_stats.dense_fallbacks;
      ActionVectorInto(a, goal_space, ws.action_vec);
      ws.top_k.Push(-util::Distance(ws.profile, ws.action_vec, metric), a);
      continue;
    }
    double distance = 0.0;
    switch (metric) {
      case util::DistanceMetric::kEuclidean:
        // Σ_i (h_i − c_i)² = Σh² + Σ_{c>0} ((h−c)² − h²), exactly.
        distance = std::sqrt(s2 + ws.fold_x[i]);
        break;
      case util::DistanceMetric::kManhattan:
        distance = s1 + ws.fold_x[i];
        break;
      case util::DistanceMetric::kCosine: {
        double nb = std::sqrt(ws.fold_y[i]);
        // Same expression shape as util::CosineSimilarity, same operands.
        double sim = (norm_h == 0.0 || nb == 0.0)
                         ? 0.0
                         : ws.fold_x[i] / (norm_h * nb);
        distance = 1.0 - sim;
        break;
      }
    }
    ws.top_k.Push(-distance, a);
  }
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kRank),
      static_cast<uint32_t>(candidates.size()));
  if (stopped) {
    // A stopped fold leaves half-summed distances: emit nothing.
    span.Annotate("stopped_early", true);
    return;
  }
  ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kEmit),
      static_cast<uint32_t>(out.size()));
  span.Annotate("emitted", out.size());
}

// The goal-major fold. Where a candidate-major walk visits every posting of
// every candidate and drops those whose goal lies outside GS(H), this walks
// ImplsOfGoal(g) → ActionsOf(p) for the goals of GS(H) only. c_a[g] is
// complete once goal g's implementations are walked, so its metric term is
// folded into the candidate's accumulators before the next goal. Every term
// is an exact integer under the caller's certificate, so the goal-major
// summation order yields the same doubles as any other order.
bool BestMatchRecommender::FoldGoals(std::span<const model::GoalId> goal_space,
                                     std::span<const double> profile,
                                     size_t num_candidates,
                                     const util::StopToken* stop,
                                     QueryWorkspace& ws) const {
  const bool boolean =
      options_.representation == GoalVectorRepresentation::kBoolean;
  ws.fold_x.assign(num_candidates, 0.0);
  ws.fold_y.assign(num_candidates, 0.0);
  ws.fold_stamp.assign(num_candidates, 0);
  if (ws.fold_count.size() < num_candidates) {
    ws.fold_count.resize(num_candidates);
  }
  for (size_t i = 0; i < goal_space.size(); ++i) {
    if (stop != nullptr && stop->ShouldStop()) return false;
    const uint32_t stamp = static_cast<uint32_t>(i) + 1;
    ws.fold_touched.clear();
    for (model::ImplId p : library_->ImplsOfGoal(goal_space[i])) {
      for (model::ActionId a : library_->ActionsOf(p)) {
        const uint32_t c = ws.CandidateIndexOf(a);
        if (c == QueryWorkspace::kNoCandidate) continue;
        if (ws.fold_stamp[c] != stamp) {
          ws.fold_stamp[c] = stamp;
          ws.fold_count[c] = 1.0;
          ws.fold_touched.push_back(c);
        } else if (!boolean) {
          ws.fold_count[c] += 1.0;
        }
      }
    }
    const double h = profile[i];
    switch (options_.metric) {
      case util::DistanceMetric::kEuclidean:
        for (uint32_t c : ws.fold_touched) {
          double d = h - ws.fold_count[c];
          ws.fold_x[c] += d * d - h * h;
        }
        break;
      case util::DistanceMetric::kManhattan:
        for (uint32_t c : ws.fold_touched) {
          ws.fold_x[c] += std::abs(h - ws.fold_count[c]) - h;
        }
        break;
      case util::DistanceMetric::kCosine:
        for (uint32_t c : ws.fold_touched) {
          double count = ws.fold_count[c];
          ws.fold_x[c] += h * count;
          ws.fold_y[c] += count * count;
        }
        break;
    }
    ws.kernel_stats.slots_touched +=
        static_cast<uint32_t>(ws.fold_touched.size());
  }
  return true;
}

// Phase A of the sharded fan-out. Goal-colocated partitioning means every
// implementation of a goal is on the goal's shard, so the shard's scatter
// over the activity postings sees ALL contributions to each of its goals:
// the slice's per-goal profile values equal the unsharded kernel's values
// for those goals, and the disjoint slices reassemble into the exact global
// profile. Slice totals (Σh, Σh², max h) are exact integers whenever the
// root's certificate passes — precisely when they are used.
void BestMatchRecommender::BuildShardProfile(util::IdSpan activity,
                                             const util::StopToken* stop,
                                             QueryWorkspace& ws,
                                             BestMatchShardProfile& out) const {
  // Weights scale dimensions by arbitrary doubles, which breaks the
  // exact-integer partial-sum argument the root merge rests on.
  GOALREC_CHECK(options_.goal_weights == nullptr);
  out.goals.clear();
  out.h.clear();
  out.candidates.clear();
  out.s1 = out.s2 = out.max_h = 0.0;

  const uint32_t num_actions = library_->num_actions();
  ws.BeginHMark(num_actions);
  ws.BeginImplPass(library_->num_implementations());
  for (model::ActionId h : activity) {
    if (h >= num_actions) continue;  // action unseen by the library
    ws.MarkH(h);
    for (model::ImplId p : library_->ImplsOfAction(h)) ws.BumpImplCount(p);
  }

  // Local GS(H) slice, sorted; slots index it exactly as the unsharded
  // kernel's slots index the global goal space.
  ws.BeginGoalPass(library_->num_goals());
  ws.goal_space.clear();
  for (model::ImplId p : ws.touched_impls()) {
    model::GoalId g = library_->GoalOf(p);
    if (ws.GoalSlotOf(g) == QueryWorkspace::kNoSlot) {
      ws.SetGoalSlot(g, 0);  // provisional: only the marked-ness matters yet
      ws.goal_space.push_back(g);
    }
  }
  std::sort(ws.goal_space.begin(), ws.goal_space.end());
  const size_t n = ws.goal_space.size();
  for (size_t i = 0; i < n; ++i) {
    ws.SetGoalSlot(ws.goal_space[i], static_cast<uint32_t>(i));
  }

  // Local candidate slice AS(H) − H (H is shard-independent).
  ws.BeginActionPass(num_actions);
  for (model::ImplId p : ws.touched_impls()) {
    for (model::ActionId a : library_->ActionsOf(p)) {
      if (ws.InH(a)) continue;
      if (ws.TestAndMark(a)) out.candidates.push_back(a);
    }
  }

  // Sparse profile scatter over the slice — the same arithmetic as the
  // unsharded kernel restricted to this shard's goals.
  const bool boolean =
      options_.representation == GoalVectorRepresentation::kBoolean;
  ws.profile.assign(n, 0.0);
  ws.slot_stamp.assign(n, 0);
  uint32_t stamp = 0;
  for (model::ActionId a : activity) {
    if (a >= num_actions) continue;
    if (stop != nullptr && stop->ShouldStop()) break;  // best-effort partial
    ++stamp;
    for (model::ImplId p : library_->ImplsOfAction(a)) {
      uint32_t slot = ws.GoalSlotOf(library_->GoalOf(p));
      if (slot == QueryWorkspace::kNoSlot) continue;  // goal outside F_GS(H)
      if (boolean && ws.slot_stamp[slot] == stamp) continue;
      ws.slot_stamp[slot] = stamp;
      ws.profile[slot] += 1.0;
    }
  }

  out.goals.assign(ws.goal_space.begin(), ws.goal_space.end());
  out.h.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double h = ws.profile[i];
    out.h[i] = h;
    out.max_h = std::max(out.max_h, h);
    out.s1 += h;
    out.s2 += h * h;
  }
}

// Phase B of the sharded fan-out: this shard's exact-integer contribution
// to each global candidate's distance. It is the unsharded kernel's fold
// restricted to this shard's GS(H) slice, so the root's recombination
// (shard_merge.cc) sums the same integer terms the unsharded kernel sums.
void BestMatchRecommender::ShardCandidatePartials(
    util::IdSpan candidates, const util::StopToken* stop, QueryWorkspace& ws,
    std::vector<BestMatchCandidatePartial>& out) const {
  GOALREC_CHECK(options_.goal_weights == nullptr);
  out.clear();
  out.resize(candidates.size());
  ws.BeginCandidatePass(library_->num_actions());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ws.SetCandidateIndex(candidates[i], static_cast<uint32_t>(i));
    out[i].postings =
        static_cast<uint32_t>(library_->ImplsOfAction(candidates[i]).size());
  }
  // The goal→slot map and ws.profile are the slice state BuildShardProfile
  // left behind. A stopped fold leaves the partials at zero; the root sees
  // the same stop and emits nothing.
  if (!FoldGoals(ws.goal_space, ws.profile, candidates.size(), stop, ws)) {
    return;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i].x = ws.fold_x[i];
    out[i].y = ws.fold_y[i];
  }
}

}  // namespace goalrec::core
