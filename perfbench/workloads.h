#ifndef GOALREC_PERFBENCH_WORKLOADS_H_
#define GOALREC_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/delta.h"
#include "model/types.h"
#include "util/status.h"

// The benchmark's workloads and their inputs. Generation (`perfbench gen`)
// turns a workload name and a seed into files; the measured process
// (`perfbench run`) receives only those files: the library as a `.snap`
// snapshot, the query stream, and the recipes the writer appends.

namespace goalrec::perfbench {

/// Everything that defines a workload. Rates, limits and client counts are
/// absolute numbers, never derived from a run-time capacity probe, so two
/// runs (and two commits) offer the same load.
struct WorkloadSpec {
  const char* name;
  /// FoodMart (56.5K recipes, connectivity ~1.2K) or 43Things (18,047
  /// implementations, connectivity ~6-8).
  bool foodmart;
  /// Open-loop Poisson arrival rate and the workers serving its one queue.
  double open_loop_qps;
  size_t open_loop_workers;
  /// Engine deadline per query, and the latency limit from the scheduled
  /// send that a good query must meet.
  int64_t deadline_ms;
  double latency_limit_us;
  /// Closed-loop capacity: clients over a fixed query list.
  size_t closed_loop_clients;
  size_t closed_loop_queries;
  /// Appends measured on an idle server after the reads: each waits for
  /// the previous one to become visible.
  size_t idle_appends;
  /// Answers checked against the reference oracle per run, drawn from
  /// queries whose naive reference costs at most `oracle_max_cost` steps.
  size_t oracle_queries;
  double oracle_max_cost;
  /// Traced run: queries timed through every layer, and the longer prefix
  /// timed through the head-rung kernel alone (enough for its p99).
  size_t layer_queries;
  size_t kernel_queries;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// File names inside an input directory.
inline constexpr char kLibraryFile[] = "library.snap";
inline constexpr char kQueriesFile[] = "queries.txt";
inline constexpr char kUpdatesFile[] = "updates.txt";

/// Generates the workload's inputs from `seed` into `dir` (created if
/// missing): the library snapshot, every step of every user's ordered
/// activity as one query (H = the actions up to and including that step) in
/// seeded order, and recipes for the writer to append. The same seed gives
/// the same files.
util::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                            const std::string& dir);

struct Inputs {
  std::string library_path;
  std::vector<model::Activity> queries;
  std::vector<model::DeltaImplementation> updates;
};

/// Reads what GenerateInputs wrote (the library stays on disk: loading it
/// is part of the measured set-up).
util::StatusOr<Inputs> ReadInputs(const std::string& dir);

}  // namespace goalrec::perfbench

#endif  // GOALREC_PERFBENCH_WORKLOADS_H_
