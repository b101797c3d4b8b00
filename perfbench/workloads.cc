#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/dataset.h"
#include "data/foodmart.h"
#include "data/fortythree.h"
#include "model/snapshot_io.h"
#include "util/random.h"
#include "util/string_utils.h"

namespace goalrec::perfbench {

namespace {

// Why each workload exists, and how its numbers were chosen, is in
// perfbench/README.md. On a 4-core Xeon the open loops keep each worker
// ~25% busy (FoodMart; at ~40% a neighbour's slow phase lets the queue,
// not the kernel, set p99) or ~1% (43Things); FoodMart's deadline sits about
// twice above the head kernel's p99, where the engine's cooperative
// deadline checks no longer decide the tail.
const std::vector<WorkloadSpec> kWorkloads = {
    // Kernel-heavy: Best Match dominates every query.
    {"foodmart_carts", /*foodmart=*/true, /*open_loop_qps=*/100.0,
     /*open_loop_workers=*/2, /*deadline_ms=*/20, /*latency_limit_us=*/25000,
     /*closed_loop_clients=*/2, /*closed_loop_queries=*/400,
     /*idle_appends=*/102,
     /*oracle_queries=*/16, /*oracle_max_cost=*/2e9,
     /*layer_queries=*/200, /*kernel_queries=*/1200},
    // Engine-heavy: microsecond queries, so the ladder walk, the workspace
    // lease and the per-query allocations are a large share.
    {"fortythree_sessions", /*foodmart=*/false, /*open_loop_qps=*/4000.0,
     /*open_loop_workers=*/2, /*deadline_ms=*/5, /*latency_limit_us=*/1000,
     /*closed_loop_clients=*/2, /*closed_loop_queries=*/40000,
     /*idle_appends=*/600,
     /*oracle_queries=*/1000, /*oracle_max_cost=*/1e12,
     /*layer_queries=*/20000, /*kernel_queries=*/20000},
};

/// Upper bound on queries written per workload: far more than one run
/// serves, so the stream never repeats within a run.
constexpr size_t kMaxQueries = 60000;
constexpr size_t kNumUpdates = 1000;

util::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return util::InternalError("cannot write " + path);
  return util::Status::Ok();
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

util::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                            const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::InternalError("cannot create " + dir);

  data::Dataset dataset;
  if (spec.foodmart) {
    data::FoodmartOptions options;
    options.seed = seed;
    dataset = data::GenerateFoodmart(options);
  } else {
    data::FortyThreeOptions options;
    options.seed = seed;
    dataset = data::GenerateFortyThree(options);
  }
  const model::ImplementationLibrary& library = dataset.library;
  if (util::Status saved =
          model::SaveSnapshot(library, dir + "/" + kLibraryFile);
      !saved.ok()) {
    return saved;
  }

  // One query per step of every user's ordered activity.
  std::vector<model::Activity> queries;
  for (const data::UserRecord& user : dataset.users) {
    model::Activity prefix;
    for (model::ActionId action : user.ordered_activity) {
      if (action >= library.num_actions()) {
        return util::InternalError("generated action outside the library");
      }
      auto at = std::lower_bound(prefix.begin(), prefix.end(), action);
      if (at != prefix.end() && *at == action) continue;
      prefix.insert(at, action);
      queries.push_back(prefix);
    }
  }
  util::Rng rng(seed, /*stream=*/0x9e);
  rng.Shuffle(queries);
  if (queries.size() > kMaxQueries) queries.resize(kMaxQueries);
  std::ostringstream query_text;
  for (const model::Activity& query : queries) {
    for (size_t i = 0; i < query.size(); ++i) {
      query_text << (i ? " " : "") << query[i];
    }
    query_text << "\n";
  }
  if (util::Status status =
          WriteFile(dir + "/" + kQueriesFile, query_text.str());
      !status.ok()) {
    return status;
  }

  // Writer input: variants of existing implementations — the goal and the
  // actions of a random implementation with one action swapped for another
  // action of the library — so every append is a plausible new recipe.
  std::ostringstream update_text;
  for (size_t u = 0; u < kNumUpdates; ++u) {
    const uint32_t num_impls = library.num_implementations();
    model::ImplementationView impl =
        library.implementation(rng.UniformUint32(num_impls));
    std::vector<model::ActionId> actions(impl.actions.begin(),
                                         impl.actions.end());
    model::ImplementationView donor =
        library.implementation(rng.UniformUint32(num_impls));
    actions[rng.UniformUint32(static_cast<uint32_t>(actions.size()))] =
        donor.actions[rng.UniformUint32(
            static_cast<uint32_t>(donor.actions.size()))];
    std::sort(actions.begin(), actions.end());
    actions.erase(std::unique(actions.begin(), actions.end()), actions.end());
    update_text << library.goals().Name(impl.goal);
    for (model::ActionId action : actions) {
      update_text << "\t" << library.actions().Name(action);
    }
    update_text << "\n";
  }
  return WriteFile(dir + "/" + kUpdatesFile, update_text.str());
}

util::StatusOr<Inputs> ReadInputs(const std::string& dir) {
  Inputs inputs;
  inputs.library_path = dir + "/" + kLibraryFile;
  if (!std::filesystem::exists(inputs.library_path)) {
    return util::NotFoundError("missing " + inputs.library_path);
  }
  std::ifstream queries(dir + "/" + kQueriesFile);
  if (!queries) return util::NotFoundError("missing queries in " + dir);
  std::string line;
  while (std::getline(queries, line)) {
    model::Activity query;
    std::istringstream ids(line);
    model::ActionId id = 0;
    while (ids >> id) query.push_back(id);
    if (!query.empty()) inputs.queries.push_back(std::move(query));
  }
  std::ifstream updates(dir + "/" + kUpdatesFile);
  if (!updates) return util::NotFoundError("missing updates in " + dir);
  while (std::getline(updates, line)) {
    std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.size() < 2) continue;
    model::DeltaImplementation impl;
    impl.goal = fields[0];
    impl.actions.assign(fields.begin() + 1, fields.end());
    inputs.updates.push_back(std::move(impl));
  }
  if (inputs.queries.empty() || inputs.updates.empty()) {
    return util::InternalError("empty inputs in " + dir);
  }
  return inputs;
}

}  // namespace goalrec::perfbench
