// perfbench — the repository benchmark driver (perfbench/README.md).
//
//   perfbench gen --workload=W --seed=N --dir=D
//       writes the workload's inputs (library .snap, query stream, recipes
//       to append) for seed N into D;
//   perfbench run --workload=W --seed=N --dir=D --seconds=S --trace=0|1
//       [--spans_out=PATH] [--git_sha=SHA] [--source_sha256=HEX]
//       serves them through the public serving stack and prints one line
//       per metric, then the result as one JSON object on the last line.
//
// The served path is the snapshot-mode ladder `goalrec serve` runs:
// LoadLibrarySnapshot → SnapshotManager → ServingEngine(snapshots,
// {deadline_ms}) over best_match → breadth → popularity, with no admission
// control and no sharding. --trace=0 reports the end-to-end metrics;
// --trace=1 repeats the run with spans around every public call and reports
// the per-layer metrics derived from them.

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "core/best_match.h"
#include "core/breadth.h"
#include "core/query_workspace.h"
#include "model/delta_log.h"
#include "model/library_io.h"
#include "model/sharding.h"
#include "model/subset.h"
#include "model/validate.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/popularity_floor.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "testing/differential.h"
#include "testing/reference.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

// Per-thread count of global operator new calls: engine.allocs_per_query
// takes the difference around one Serve on the calling thread. Thread-local,
// so counting adds no shared cache line to the concurrent untraced run.
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation is counted and pairs with the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// GCC pairs an inlined new-expression with the free() below and reports
// -Wmismatched-new-delete; the pair is matched, operator new uses malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace goalrec::perfbench {
namespace {

constexpr size_t kK = 10;
/// Rounds per run; each takes a slice of every phase.
constexpr size_t kRounds = 6;
/// Latency percentiles are medians over up to this many consecutive windows
/// of the run (WindowedPercentile), so one burst does not decide them.
constexpr size_t kPercentileWindows = 7;
/// Set-up repetitions per round, after the first set-up; setup_s is the
/// median of all of them.
constexpr size_t kSetupRepsPerRound = 2;
/// Queries served during set-up so the first measured query finds warm
/// workspaces and indexes.
constexpr size_t kWarmupQueries = 8;
/// Shares of --seconds: the open loop, then the closed loop.
constexpr double kOpenLoopShare = 0.75;
constexpr double kClosedLoopShare = 0.15;
/// The reader polls the delta directory when the writer signals an append,
/// and otherwise at `goalrec serve`'s default --watch_interval_ms.
constexpr auto kReaderIdlePoll = std::chrono::milliseconds(500);
/// Give up waiting for an append to become visible after this long.
constexpr auto kVisibleTimeout = std::chrono::seconds(30);

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

std::string FormatNumber(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The run's accounting: metrics, operations attempted and failed, and the
/// reasons any check failed.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit,
           size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  struct utsname name;
  return uname(&name) == 0 ? name.machine : "unknown";
}

void PrintEnvironment(const std::string& workload, uint64_t seed,
                      double seconds, bool trace, const std::string& git_sha,
                      const std::string& source_sha256) {
  char date[32];
  std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "env {\"git_sha\": \"%s\", \"source_sha256\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"date\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d}\n",
      JsonEscape(git_sha).c_str(), JsonEscape(source_sha256).c_str(),
      JsonEscape(CpuModel()).c_str(), CpuCount(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, date, workload.c_str(),
      static_cast<unsigned long long>(seed), FormatNumber(seconds).c_str(),
      trace ? 1 : 0);
}

void PrintResult(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %-36s %14s %-6s samples=%zu\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  for (const std::string& error : report.errors) {
    std::printf("error %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.errors.empty() && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Spans -------------------------------------------------------------------

/// The span context the ladder factory nests under: the factory runs inside
/// SnapshotManager's constructor and reloads, where the benchmark cannot
/// pass a parent explicitly.
struct TraceContext {
  SpanRecorder* recorder = nullptr;
  int32_t parent = -1;
  uint64_t query_id = 0;
};
thread_local TraceContext t_trace;

/// Sets the calling thread's ladder span context for one scope.
class ScopedTraceContext {
 public:
  ScopedTraceContext(SpanRecorder* recorder, int32_t parent,
                     uint64_t query_id)
      : saved_(t_trace) {
    t_trace = {recorder, parent, query_id};
  }
  ~ScopedTraceContext() { t_trace = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Every recorder of the run. Each thread records into its own; they are
/// concatenated (parent indices rebased) when the run ends.
class SpanSet {
 public:
  SpanRecorder* New() {
    recorders_.push_back(std::make_unique<SpanRecorder>());
    return recorders_.back().get();
  }

  std::vector<Span> Merged() const {
    std::vector<Span> all;
    for (const auto& recorder : recorders_) {
      const int32_t base = static_cast<int32_t>(all.size());
      for (Span span : recorder->spans()) {
        if (span.parent >= 0) span.parent += base;
        all.push_back(span);
      }
    }
    return all;
  }

 private:
  std::vector<std::unique_ptr<SpanRecorder>> recorders_;
};

/// Self times (or durations) in `unit_ns` units of the spans named `name`,
/// optionally only those whose parent is named `parent_name`.
std::vector<double> SpanValues(const std::vector<Span>& spans,
                               const std::vector<int64_t>& self_ns,
                               const std::string& name, double unit_ns,
                               bool self, const char* parent_name = nullptr) {
  std::vector<double> values;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (name != span.name) continue;
    if (parent_name != nullptr &&
        (span.parent < 0 ||
         std::string_view(parent_name) !=
             spans[static_cast<size_t>(span.parent)].name)) {
      continue;
    }
    double ns = self ? static_cast<double>(self_ns[i])
                     : static_cast<double>(span.end_ns - span.start_ns);
    values.push_back(ns / unit_ns);
  }
  return values;
}

// --- The serving stack -------------------------------------------------------

serve::LadderFactory MakeLadder() {
  return [](const model::ImplementationLibrary& library,
            serve::ServingSnapshot& out) {
    Traced(t_trace.recorder, "ladder", t_trace.parent, t_trace.query_id, [&] {
      auto best_match = std::make_unique<core::BestMatchRecommender>(&library);
      auto breadth = std::make_unique<core::BreadthRecommender>(&library);
      auto popularity =
          std::make_unique<serve::LibraryPopularityRecommender>(&library);
      out.rungs = {{"best_match", best_match.get()},
                   {"breadth", breadth.get()},
                   {"popularity", popularity.get()}};
      out.owned.push_back(std::move(best_match));
      out.owned.push_back(std::move(breadth));
      out.owned.push_back(std::move(popularity));
    });
  };
}

struct Stack {
  obs::MetricRegistry registry;
  std::unique_ptr<serve::SnapshotManager> manager;
  std::unique_ptr<serve::ServingEngine> engine;
};

/// One set-up: the .snap file to a serve-ready engine. Returns the seconds
/// it took.
util::StatusOr<double> BuildStack(const WorkloadSpec& spec,
                                  const Inputs& inputs, Stack& stack,
                                  SpanRecorder* recorder, uint64_t rep) {
  const Clock::time_point start = Clock::now();
  const int32_t root =
      recorder ? recorder->Begin("setup", -1, rep) : -1;
  auto loaded = Traced(recorder, "setup.load", root, rep, [&] {
    return model::LoadLibrarySnapshot(inputs.library_path);
  });
  if (!loaded.ok()) {
    if (recorder) recorder->End(root);
    return loaded.status();
  }
  {
    const int32_t span =
        recorder ? recorder->Begin("setup.manager", root, rep) : -1;
    ScopedTraceContext context(recorder, span, rep);
    stack.manager = std::make_unique<serve::SnapshotManager>(
        std::move(loaded).value(), MakeLadder(), &stack.registry);
    if (recorder) recorder->End(span);
  }
  Traced(recorder, "setup.engine", root, rep, [&] {
    serve::EngineOptions options;
    options.deadline_ms = spec.deadline_ms;
    options.metrics = &stack.registry;
    stack.engine =
        std::make_unique<serve::ServingEngine>(stack.manager.get(), options);
  });
  util::Status warm = Traced(recorder, "setup.warmup", root, rep, [&] {
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      auto served =
          stack.engine->Serve(inputs.queries[i % inputs.queries.size()], kK);
      if (!served.ok()) return served.status();
    }
    return util::Status::Ok();
  });
  if (recorder) recorder->End(root);
  if (!warm.ok()) return warm;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Data plane --------------------------------------------------------------

struct DataPlaneResult {
  std::vector<double> visible_ms;
  std::vector<double> segment_bytes;
  uint64_t appends = 0;
  uint64_t publishes = 0;
  uint64_t reload_failures = 0;
};

/// A writer appending one-implementation delta segments, compacting after
/// the last, and a reader publishing them through
/// SnapshotManager::ReloadFromDeltaLog. The reader polls when the writer
/// signals a finished append, as a file watcher would, and otherwise every
/// kReaderIdlePoll. The server is otherwise idle: the writer waits for each
/// append to become visible before the next. Each append is timed from the
/// start of DeltaLog::Append until Acquire() returns a version holding it.
/// Checks that the served version rises at every publish and that the
/// served implementation count is always one the writer produced.
/// Accumulates into `result`.
void RunDataPlane(const Inputs& inputs, size_t& next_update, size_t appends,
                  model::DeltaLog& writer,
                  model::DeltaLog& reader, model::DeltaLog* shadow,
                  serve::SnapshotManager& manager,
                  SpanRecorder* writer_spans, SpanRecorder* reader_spans,
                  DataPlaneResult& result, Report& report) {
  struct Pending {
    Clock::time_point start;
    uint32_t impls;
  };
  std::mutex mu;  // guards the state below, shared with the writer thread
  std::condition_variable changed;  // an append finished, or one became visible
  std::vector<Pending> pending;
  std::vector<uint32_t> produced = {writer.library().num_implementations()};
  size_t finished = 0;  // appends the writer has finished, failed ones too
  size_t visible = 0;
  size_t expected = appends;
  bool writer_done = false;
  std::vector<std::string> errors;

  std::thread writer_thread([&] {
    for (size_t i = 0; i < appends; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        changed.wait_for(lock, kVisibleTimeout, [&] { return visible >= i; });
      }
      model::DeltaOps ops;
      ops.appended = {inputs.updates[next_update++ % inputs.updates.size()]};
      const uint64_t seq = writer.view().next_chain_seq();
      // One appended implementation adds one row. Record it before the
      // segment can become visible, so the reader never sees a count the
      // writer has not announced.
      const uint32_t impls = writer.library().num_implementations() + 1;
      const Clock::time_point t0 = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back({t0, impls});
        produced.push_back(impls);
      }
      util::Status appended = Traced(writer_spans, "delta.append", -1, seq,
                                     [&] { return writer.Append(ops); });
      {
        std::lock_guard<std::mutex> lock(mu);
        ++finished;
        if (!appended.ok()) {
          errors.push_back("append failed: " + appended.ToString());
          pending.pop_back();  // never visible: the reader cannot have it
          produced.pop_back();
          --expected;
        } else {
          if (writer.library().num_implementations() != impls) {
            errors.push_back("append did not add exactly one implementation");
          }
          std::error_code ec;
          result.segment_bytes.push_back(static_cast<double>(
              std::filesystem::file_size(writer.SegmentPath(seq), ec)));
          ++result.appends;
        }
      }
      changed.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      writer_done = true;
    }
    changed.notify_all();
  });

  uint64_t last_version = manager.current_version();
  size_t polled = 0;  // finished appends the reader has polled after
  const Clock::time_point reader_start = Clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      changed.wait_for(lock, kReaderIdlePoll, [&] {
        return finished > polled || (writer_done && visible >= expected);
      });
      if (writer_done && visible >= expected) break;
      polled = finished;
    }
    if (Clock::now() - reader_start > kVisibleTimeout) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back("appends never became visible");
      break;
    }
    // One poll-and-publish round. Rounds that publish nothing are not
    // recorded: only publishes carry data-plane cost.
    SpanRecorder* spans = reader_spans;
    const int32_t root = spans ? spans->Begin("reload", -1, 0) : -1;
    if (shadow != nullptr) {
      Traced(spans, "reload.poll", root, 0, [&] { return shadow->Poll(); });
    }
    util::StatusOr<uint64_t> reloaded = [&] {
      const int32_t publish =
          spans ? spans->Begin("reload.publish", root, 0) : -1;
      ScopedTraceContext context(spans, publish, 0);
      auto status = manager.ReloadFromDeltaLog(reader);
      if (spans) spans->End(publish);
      return status;
    }();
    if (!reloaded.ok()) ++result.reload_failures;
    std::shared_ptr<const serve::ServingSnapshot> snapshot = manager.Acquire();
    const uint64_t version = snapshot->library->version;
    const bool published = version != last_version;
    if (published) {
      const Clock::time_point now = Clock::now();
      const uint32_t impls = snapshot->library->library.num_implementations();
      {
        std::lock_guard<std::mutex> lock(mu);
        if (version < last_version) errors.push_back("served version fell");
        last_version = version;
        ++result.publishes;
        if (std::find(produced.begin(), produced.end(), impls) ==
            produced.end()) {
          errors.push_back("served " + std::to_string(impls) +
                           " implementations, a count the writer never had");
        }
        while (!pending.empty() && pending.front().impls <= impls) {
          result.visible_ms.push_back(MsBetween(pending.front().start, now));
          pending.erase(pending.begin());
          ++visible;
        }
      }
      changed.notify_all();
    }
    if (spans != nullptr) {
      if (published) {
        Traced(spans, "reload.validate", root, version, [&] {
          return model::ValidateLibrary(snapshot->library->library);
        });
        spans->End(root);
      } else {
        spans->Discard(root);
      }
    }
  }
  writer_thread.join();

  // Compaction, once every append is visible: it re-anchors the chain, and
  // the reader's next poll reopens the new base and publishes it again. Kept
  // out of the appends' path so update_visible_* time appends alone.
  if (util::Status compacted = Traced(writer_spans, "delta.compact", -1, 0,
                                      [&] { return writer.Compact(); });
      !compacted.ok()) {
    errors.push_back("compaction failed: " + compacted.ToString());
  }
  if (shadow != nullptr) (void)shadow->Poll();
  if (!manager.ReloadFromDeltaLog(reader).ok()) ++result.reload_failures;

  const uint32_t served =
      manager.Acquire()->library->library.num_implementations();
  if (served != writer.library().num_implementations()) {
    errors.push_back("served " + std::to_string(served) +
                     " implementations, writer holds " +
                     std::to_string(writer.library().num_implementations()));
  }
  report.attempted += appends;
  for (std::string& error : errors) report.Fail(std::move(error));
}

// --- Reads -------------------------------------------------------------------

/// Per arrival of the whole open-loop schedule.
struct LoadOutcome {
  explicit LoadOutcome(size_t n)
      : latency_us(n), start_delay_us(n), found_idle(n),
        outcome(n, QueryOutcome::kFailed), head_rung(n), deadline_hit(n) {}
  std::vector<double> latency_us;
  std::vector<double> start_delay_us;
  std::vector<uint8_t> found_idle;
  std::vector<QueryOutcome> outcome;
  std::vector<uint8_t> head_rung;     // served by rung 0
  std::vector<uint8_t> deadline_hit;  // some rung lost to the deadline
};

/// One segment of the open loop: arrivals [begin, end) of `schedule`, timed
/// from `window_start_ns` on the schedule's clock.
void RunLoad(const WorkloadSpec& spec, const Inputs& inputs,
             const serve::ServingEngine& engine,
             const std::vector<int64_t>& schedule, size_t begin, size_t end,
             int64_t window_start_ns,
             const std::vector<SpanRecorder*>& worker_spans,
             LoadOutcome& load) {
  std::vector<int64_t> segment;
  for (size_t i = begin; i < end; ++i) {
    segment.push_back(schedule[i] - window_start_ns);
  }
  OpenLoopResult timing = RunOpenLoop(segment, spec.open_loop_workers,
                                      [&](size_t worker, size_t j) {
    const size_t i = begin + j;
    SpanRecorder* spans = worker_spans.empty() ? nullptr : worker_spans[worker];
    const model::Activity& query = inputs.queries[i % inputs.queries.size()];
    const int32_t root = spans ? spans->Begin("query", -1, i) : -1;
    auto served = Traced(spans, "serve.engine", root, i,
                         [&] { return engine.Serve(query, kK); });
    if (spans) spans->End(root);
    load.outcome[i] = Classify(served);
    if (!served.ok()) return;
    load.head_rung[i] = served->rung_index == 0;
    for (const serve::RungReport& rung : served->rungs) {
      if (rung.outcome == serve::RungOutcome::kDeadlineExceeded) {
        load.deadline_hit[i] = 1;
      }
    }
  });
  for (size_t j = 0; j < segment.size(); ++j) {
    load.latency_us[begin + j] = timing.latency_us[j];
    load.start_delay_us[begin + j] = timing.start_delay_us[j];
    load.found_idle[begin + j] = timing.found_idle_worker[j];
  }
}

/// Closed loop: `closed_loop_clients` clients drain the fixed query list,
/// pass after pass, while another pass still fits in `budget_s` (at least
/// one pass). Appends each pass's completed queries per second to `rates`.
void RunClosedLoop(const WorkloadSpec& spec, const Inputs& inputs,
                   const serve::ServingEngine& engine, double budget_s,
                   std::vector<double>& rates, Report& report) {
  const size_t count =
      std::min(spec.closed_loop_queries, inputs.queries.size());
  double spent_s = 0;
  double pass_s = 0;
  do {
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failures{0};
    const Clock::time_point pass_start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < spec.closed_loop_clients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = next++; i < count; i = next++) {
          if (!engine.Serve(inputs.queries[i], kK).ok()) ++failures;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    pass_s = std::chrono::duration<double>(Clock::now() - pass_start).count();
    spent_s += pass_s;
    rates.push_back(static_cast<double>(count) / pass_s);
    report.attempted += count;
    for (uint64_t f = 0; f < failures; ++f) {
      report.Fail("closed-loop query failed");
    }
  } while (spent_s + pass_s <= budget_s);
}

// --- The traced layer pass ---------------------------------------------------

struct LayerCounts {
  std::vector<double> allocs;
  std::vector<double> h_size, impl_space, goal_space, candidates, postings;
  double slots_touched = 0;
  double dense_fallbacks = 0;
  size_t kernel_queries = 0;
  size_t shed = 0;
  size_t admitted_queries = 0;
};

/// Times the workload's queries through each layer's public entry point,
/// one call per span: the head-rung kernels on a leased workspace, the
/// engine, an engine behind an AdmissionController, and sharded Best Match
/// at 1, 2 and nproc shards. Query q gets every layer when q <
/// layer_queries, and the head kernel alone up to kernel_queries.
class LayerPass {
 public:
  LayerPass(const WorkloadSpec& spec, const Inputs& inputs, const Stack& stack,
            SpanRecorder& spans, Report& report)
      : spec_(spec),
        inputs_(inputs),
        spans_(spans),
        report_(report),
        admission_(AdmissionOptionsFor(&admission_registry_)),
        sharded_base_(stack.manager->Acquire()),
        lease_(pool_.Acquire()) {
    const size_t nproc = CpuCount();
    if (nproc > 1) fanout_.emplace(nproc - 1);
    // Partitions of the library served at construction; the kernels and the
    // engine use whatever version is current when a round runs.
    for (uint32_t shards : {1u, 2u, static_cast<uint32_t>(nproc)}) {
      sharded_.push_back(std::make_unique<serve::ShardedRecommender>(
          model::BuildShardedSnapshot(sharded_base_->library->library, shards),
          serve::ShardedStrategy::kBestMatch, fanout_ ? &*fanout_ : nullptr));
    }
    // Warm every path once so no span pays a first-call allocation.
    for (const auto& recommender : sharded_) {
      recommender->RecommendPooled(inputs.queries[0], kK, nullptr, lease_.get(),
                                   out_);
    }
  }

  size_t total_queries() const {
    return std::max(spec_.kernel_queries, spec_.layer_queries);
  }

  /// Runs queries [begin, end) against `stack`'s current library.
  void Run(const Stack& stack, size_t begin, size_t end);

  const LayerCounts& counts() const { return counts_; }

 private:
  static serve::AdmissionOptions AdmissionOptionsFor(
      obs::MetricRegistry* registry) {
    serve::AdmissionOptions options;
    options.metrics = registry;
    return options;
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  SpanRecorder& spans_;
  Report& report_;
  obs::MetricRegistry admission_registry_;
  serve::AdmissionController admission_;
  /// Keeps alive the library the shard partitions index: set-up
  /// repetitions replace the serving stack under the pass.
  std::shared_ptr<const serve::ServingSnapshot> sharded_base_;
  std::optional<util::ThreadPool> fanout_;
  std::vector<std::unique_ptr<serve::ShardedRecommender>> sharded_;
  core::QueryWorkspacePool pool_;
  core::QueryWorkspacePool::Lease lease_;
  core::RecommendationList out_;
  LayerCounts counts_;
};

void LayerPass::Run(const Stack& stack, size_t begin, size_t end) {
  static constexpr const char* kShardSpans[3] = {
      "shard.best_match.s1", "shard.best_match.s2", "shard.best_match.snproc"};
  serve::EngineOptions admitted_options;
  admitted_options.deadline_ms = spec_.deadline_ms;
  admitted_options.admission = &admission_;
  admitted_options.metrics = &admission_registry_;
  serve::ServingEngine admitted(stack.manager.get(), admitted_options);
  (void)admitted.Serve(inputs_.queries[0], kK);  // mint its workspace
  const std::shared_ptr<const serve::ServingSnapshot> snapshot =
      stack.manager->Acquire();
  const model::ImplementationLibrary& library = snapshot->library->library;
  const core::Recommender& best_match = *snapshot->rungs[0].recommender;
  const core::Recommender& breadth = *snapshot->rungs[1].recommender;
  const core::Recommender& popularity = *snapshot->rungs[2].recommender;
  core::QueryWorkspace* workspace = lease_.get();
  for (size_t q = begin; q < end; ++q) {
    const model::Activity& query = inputs_.queries[q % inputs_.queries.size()];
    const int32_t root = spans_.Begin("layers", -1, q);
    auto run_kernel = [&] {
      workspace->kernel_stats = {};
      Traced(&spans_, "core.best_match", root, q, [&] {
        best_match.RecommendPooled(query, kK, nullptr, workspace, out_);
      });
      counts_.slots_touched += workspace->kernel_stats.slots_touched;
      counts_.dense_fallbacks += workspace->kernel_stats.dense_fallbacks;
      ++counts_.kernel_queries;
    };
    if (q >= spec_.layer_queries) {
      run_kernel();
      spans_.End(root);
      continue;
    }
    ++report_.attempted;
    auto run_engine = [&] {
      const uint64_t before = t_allocations;
      auto served = Traced(&spans_, "serve.engine", root, q,
                           [&] { return stack.engine->Serve(query, kK); });
      counts_.allocs.push_back(static_cast<double>(t_allocations - before));
      if (!served.ok()) {
        report_.Fail("layer pass: " + served.status().ToString());
      }
    };
    auto run_admitted = [&] {
      auto served = Traced(&spans_, "serve.admission", root, q,
                           [&] { return admitted.Serve(query, kK); });
      ++counts_.admitted_queries;
      if (served.ok()) return;
      if (served.status().code() == util::StatusCode::kResourceExhausted) {
        ++counts_.shed;
      } else {
        report_.Fail("admission pass: " + served.status().ToString());
      }
    };
    // The taxes are differences between calls on one query; alternate the
    // order so neither side of a difference always finds warmer caches.
    if (q % 2 == 0) {
      run_admitted();
      run_engine();
      run_kernel();
    } else {
      run_kernel();
      run_engine();
      run_admitted();
    }
    Traced(&spans_, "core.breadth", root, q, [&] {
      breadth.RecommendPooled(query, kK, nullptr, workspace, out_);
    });
    Traced(&spans_, "core.popularity", root, q, [&] {
      popularity.RecommendPooled(query, kK, nullptr, workspace, out_);
    });
    for (size_t s = 0; s < sharded_.size(); ++s) {
      Traced(&spans_, kShardSpans[s], root, q, [&] {
        sharded_[s]->RecommendPooled(query, kK, nullptr, workspace, out_);
      });
    }
    spans_.End(root);
    // The query's shape, from the library's public indexes.
    model::IdSet candidates = library.CandidateActions(query);
    double postings = 0;
    for (model::ActionId a : candidates) {
      postings += static_cast<double>(library.ImplsOfAction(a).size());
    }
    counts_.h_size.push_back(static_cast<double>(query.size()));
    counts_.impl_space.push_back(
        static_cast<double>(library.ImplementationSpace(query).size()));
    counts_.goal_space.push_back(
        static_cast<double>(library.GoalSpace(query).size()));
    counts_.candidates.push_back(static_cast<double>(candidates.size()));
    counts_.postings.push_back(postings);
  }
}

// --- Correctness gate --------------------------------------------------------

/// testing::ReferenceBestMatch for `query` over the full `library`, run on
/// the sub-library of GS(H)'s goals. That sub-library holds every
/// implementation Best Match reads — IS(H), and every implementation of a
/// goal in GS(H), which is all its goal vectors count — so the reference
/// answers exactly as on the full library, at a fraction of its naive cost.
/// Ids are mapped back by name and ties broken by full-library id, as the
/// served ranking does.
testing::ReferenceList ReferenceOverGoalSpace(
    const model::ImplementationLibrary& library, const model::Activity& query,
    const model::IdSet& goal_space, size_t k) {
  model::ImplementationLibrary sub =
      model::FilterByGoalIds(library, goal_space);
  model::Activity sub_query;
  for (model::ActionId a : query) {
    if (auto id = sub.actions().Find(library.actions().Name(a))) {
      sub_query.push_back(*id);
    }
  }
  std::sort(sub_query.begin(), sub_query.end());
  testing::ReferenceList all =
      testing::ReferenceBestMatch(sub, sub_query, sub.num_actions());
  for (testing::ReferenceItem& item : all) {
    item.action = *library.actions().Find(sub.actions().Name(item.action));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.action < b.action;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Prefix-length strata of the oracle sample: the query stream's quartiles
/// of |H|, so long cart prefixes are drawn as often as short ones.
constexpr size_t kOracleStrata = 4;

/// Serves a seeded sample of the workload's queries and checks every answer
/// the best_match rung gave against the reference oracle, bit for bit with
/// testing::CompareLists; an empty head rung must match an empty reference.
/// Draws rotate over the |H| strata. The naive reference costs
/// (|H| + candidates) × |GS| × |sub-library| steps (seconds per FoodMart
/// query), so a draw above `oracle_max_cost` is skipped and counted. Once
/// `oracle_queries` answers are served, their references run on nproc
/// threads. Prints what was checked per stratum.
void RunOracleGate(const WorkloadSpec& spec, const Inputs& inputs,
                   const Stack& stack, uint64_t seed, Report& report) {
  std::vector<uint32_t> by_size(inputs.queries.size());
  for (uint32_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](uint32_t a, uint32_t b) {
    return inputs.queries[a].size() < inputs.queries[b].size();
  });
  auto stratum_begin = [&](size_t s) {
    return by_size.size() * s / kOracleStrata;
  };

  // Draw and serve, one stratum after another.
  struct Check {
    const model::Activity* query;
    size_t stratum;
    model::IdSet goal_space;
    std::shared_ptr<const serve::ServingSnapshot> snapshot;
    serve::ServeResult served;
  };
  std::vector<Check> checks;
  std::vector<size_t> skipped(kOracleStrata, 0);
  util::Rng rng(seed, /*stream=*/0x0c);
  for (size_t draw = 0; checks.size() < spec.oracle_queries && draw < 20000;
       ++draw) {
    const size_t s = draw % kOracleStrata;
    const size_t lo = stratum_begin(s);
    const model::Activity& query = inputs.queries[by_size[
        lo + rng.UniformUint32(static_cast<uint32_t>(stratum_begin(s + 1) -
                                                     lo))]];
    std::shared_ptr<const serve::ServingSnapshot> snapshot =
        stack.manager->Acquire();
    const model::ImplementationLibrary& library = snapshot->library->library;
    model::IdSet goal_space = library.GoalSpace(query);
    double sub_impls = 0;
    for (model::GoalId g : goal_space) {
      sub_impls += static_cast<double>(library.ImplsOfGoal(g).size());
    }
    const size_t candidates = library.CandidateActions(query).size();
    const double cost = static_cast<double>(query.size() + candidates) *
                        static_cast<double>(goal_space.size()) * sub_impls;
    if (cost > spec.oracle_max_cost) {
      ++skipped[s];
      continue;
    }
    ++report.attempted;
    auto served = stack.engine->Serve(query, kK);
    if (!served.ok()) {
      report.Fail("oracle query failed: " + served.status().ToString());
      continue;
    }
    if (served->library_version != snapshot->library->version) {
      report.Fail("library changed under the oracle check");
      continue;
    }
    const serve::RungOutcome head = served->rungs.front().outcome;
    if (head != serve::RungOutcome::kServed &&
        head != serve::RungOutcome::kEmpty) {
      continue;  // lost to the deadline: nothing of best_match's to check
    }
    checks.push_back({&query, s, std::move(goal_space), std::move(snapshot),
                      std::move(served).value()});
  }

  // The references, on every core.
  std::mutex mu;  // guards `report`
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < CpuCount(); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < checks.size(); i = next++) {
        const Check& check = checks[i];
        testing::ReferenceList reference = ReferenceOverGoalSpace(
            check.snapshot->library->library, *check.query, check.goal_space,
            kK);
        const bool empty =
            check.served.rungs.front().outcome == serve::RungOutcome::kEmpty;
        testing::DiffOutcome diff;
        if (!empty) diff = testing::CompareLists(check.served.list, reference);
        std::lock_guard<std::mutex> lock(mu);
        if (empty && !reference.empty()) {
          report.Fail("best_match answered empty, the oracle did not");
        } else if (!empty && !diff.match) {
          report.Fail("best_match differs from the oracle: " + diff.detail);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double took =
      std::chrono::duration<double>(Clock::now() - start).count();

  size_t checked = 0;
  std::printf("oracle: %zu answers, references took %s s on %zu threads",
              checks.size(), FormatNumber(took).c_str(), CpuCount());
  for (size_t s = 0; s < kOracleStrata; ++s) {
    size_t done = 0, empty = 0, h_max = 0;
    double h_sum = 0, gs_sum = 0;
    for (const Check& check : checks) {
      if (check.stratum != s) continue;
      if (check.served.rungs.front().outcome == serve::RungOutcome::kEmpty) {
        ++empty;
        continue;
      }
      ++done;
      h_sum += static_cast<double>(check.query->size());
      gs_sum += static_cast<double>(check.goal_space.size());
      h_max = std::max(h_max, check.query->size());
    }
    checked += done;
    const double n = static_cast<double>(std::max<size_t>(done, 1));
    std::printf("; |H| %zu-%zu: %zu checked (mean |H| %.1f, max %zu, mean "
                "|GS| %.0f), %zu empty, %zu over the cost cap",
                inputs.queries[by_size[stratum_begin(s)]].size(),
                inputs.queries[by_size[stratum_begin(s + 1) - 1]].size(), done,
                h_sum / n, h_max, gs_sum / n, empty, skipped[s]);
  }
  std::printf("\n");
  if (checked == 0) report.Fail("no non-empty oracle answer was checked");
}

// --- The run -----------------------------------------------------------------

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string spans_out;
};

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Measures one span's own cost: the per-span overhead of the traced run.
double SpanCostNs() {
  SpanRecorder recorder;
  constexpr int kSpans = 100000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) recorder.End(recorder.Begin("x", -1, 0));
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         kSpans;
}

struct LoadSummary {
  size_t offered = 0;
  size_t completed = 0;  // returned OK
  size_t good = 0;       // IsGood
  size_t head = 0;       // served by rung 0
  size_t deadline = 0;   // some rung lost to the deadline
  std::vector<double> lag_us;  // generator lag, arrivals that found a worker
};

LoadSummary Summarize(const LoadOutcome& load, double limit_us) {
  LoadSummary summary;
  summary.offered = load.latency_us.size();
  for (size_t i = 0; i < summary.offered; ++i) {
    summary.completed += load.outcome[i] != QueryOutcome::kFailed;
    summary.good += IsGood(load.outcome[i], load.latency_us[i], limit_us);
    summary.head += load.head_rung[i];
    summary.deadline += load.deadline_hit[i];
    if (load.found_idle[i]) summary.lag_us.push_back(load.start_delay_us[i]);
  }
  return summary;
}

void ReportEndToEnd(const LoadOutcome& load, const LoadSummary& summary,
                    const std::vector<double>& pass_rates,
                    const std::vector<double>& setup_s,
                    const DataPlaneResult& data_plane, Report& report) {
  const size_t n = summary.offered;
  const std::vector<double>& visible = data_plane.visible_ms;
  report.Add("query_p50_us",
             WindowedPercentile(load.latency_us, 50, kPercentileWindows),
             "us", n);
  report.Add("query_p99_us",
             WindowedPercentile(load.latency_us, 99, kPercentileWindows),
             "us", n);
  report.Add("good_fraction",
             static_cast<double>(summary.good) / static_cast<double>(n),
             "ratio", n);
  report.Add("capacity_qps", Median(pass_rates), "1/s", pass_rates.size());
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  report.Add("update_visible_p50_ms",
             WindowedPercentile(visible, 50, kPercentileWindows), "ms",
             visible.size());
  report.Add("update_visible_p90_ms",
             WindowedPercentile(visible, 90, kPercentileWindows), "ms",
             visible.size());
}

/// The per-layer metrics, from the spans' self times (or whole durations
/// where noted) and the layer pass's counts.
void ReportLayers(const std::vector<Span>& spans,
                  const SpanRecorder& layer_spans, const LayerCounts& layers,
                  const LoadOutcome& load, const LoadSummary& summary,
                  size_t workspaces_created, const DataPlaneResult& data_plane,
                  Report& report) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  auto values = [&](const char* name, double unit_ns, bool self_time = true,
                    const char* parent = nullptr) {
    return SpanValues(spans, self, name, unit_ns, self_time, parent);
  };
  auto add_p = [&](const char* metric, const std::vector<double>& v, double p,
                   const char* unit) {
    report.Add(metric, Percentile(v, p), unit, v.size());
  };
  auto add_mean = [&](const char* metric, const std::vector<double>& v,
                      const char* unit) {
    report.Add(metric, Mean(v), unit, v.size());
  };
  auto add_share = [&](const char* metric, size_t part, size_t whole) {
    report.Add(metric,
               static_cast<double>(part) /
                   static_cast<double>(std::max<size_t>(whole, 1)),
               "ratio", whole);
  };
  constexpr double kUs = 1e3;  // ns per unit
  constexpr double kMs = 1e6;

  const std::vector<double> kernel_us = values("core.best_match", kUs);
  add_p("core.best_match.us_p50", kernel_us, 50, "us");
  add_p("core.best_match.us_p99", kernel_us, 99, "us");
  add_p("core.breadth.us_p50", values("core.breadth", kUs), 50, "us");
  add_p("core.popularity.us_p50", values("core.popularity", kUs), 50, "us");
  const double kq =
      static_cast<double>(std::max<size_t>(layers.kernel_queries, 1));
  report.Add("core.best_match.slots_touched", layers.slots_touched / kq,
             "count", layers.kernel_queries);
  report.Add("core.best_match.dense_fallbacks", layers.dense_fallbacks / kq,
             "count", layers.kernel_queries);
  add_mean("query.h_size", layers.h_size, "count");
  add_mean("query.impl_space", layers.impl_space, "count");
  add_mean("query.goal_space", layers.goal_space, "count");
  add_mean("query.candidates", layers.candidates, "count");
  add_mean("query.postings", layers.postings, "count");

  // Engine and admission taxes: per query, against the same query's head
  // kernel and plain engine call in the layer pass.
  std::map<uint64_t, double> kernel_by_q, engine_by_q, admitted_by_q;
  for (const Span& span : layer_spans.spans()) {
    const double us = static_cast<double>(span.end_ns - span.start_ns) / kUs;
    const std::string_view name = span.name;
    if (name == "core.best_match") kernel_by_q[span.query_id] = us;
    if (name == "serve.engine") engine_by_q[span.query_id] = us;
    if (name == "serve.admission") admitted_by_q[span.query_id] = us;
  }
  std::vector<double> engine_us, tax_us, admission_tax_us;
  for (const auto& [q, us] : engine_by_q) {
    engine_us.push_back(us);
    tax_us.push_back(us - kernel_by_q[q]);
    if (admitted_by_q.count(q)) {
      admission_tax_us.push_back(admitted_by_q[q] - us);
    }
  }
  add_p("engine.serve_us_p50", engine_us, 50, "us");
  add_p("engine.tax_us_p50", tax_us, 50, "us");
  add_mean("engine.allocs_per_query", layers.allocs, "count");
  add_share("engine.rung0_share", summary.head, summary.offered);
  add_share("engine.deadline_fallback_share", summary.deadline,
            summary.offered);
  report.Add("engine.workspaces_created",
             static_cast<double>(workspaces_created), "count", 1);
  add_p("admission.tax_us_p50", admission_tax_us, 50, "us");
  add_share("admission.shed_share", layers.shed, layers.admitted_queries);
  add_p("shard.best_match.us_p50.s1", values("shard.best_match.s1", kUs), 50,
        "us");
  add_p("shard.best_match.us_p50.s2", values("shard.best_match.s2", kUs), 50,
        "us");
  add_p("shard.best_match.us_p50.snproc",
        values("shard.best_match.snproc", kUs), 50, "us");
  add_p("setup.load_ms", values("setup.load", kMs), 50, "ms");
  add_p("setup.manager_ms", values("setup.manager", kMs, false), 50, "ms");
  add_p("setup.engine_ms", values("setup.engine", kMs), 50, "ms");
  add_p("delta.append_ms", values("delta.append", kMs), 50, "ms");
  add_p("delta.segment_bytes", data_plane.segment_bytes, 50, "bytes");
  add_p("reload.ms", values("reload.publish", kMs, false), 50, "ms");
  add_p("reload.poll_ms", values("reload.poll", kMs), 50, "ms");
  add_p("reload.validate_ms", values("reload.validate", kMs), 50, "ms");
  add_p("reload.ladder_ms", values("ladder", kMs, true, "reload.publish"), 50,
        "ms");
  report.Add("reload.failures", static_cast<double>(data_plane.reload_failures),
             "count", data_plane.publishes);
  add_p("gen.lag_us_p50", summary.lag_us, 50, "us");
  add_p("gen.lag_us_p99", summary.lag_us, 99, "us");
  report.Add("gen.offered", static_cast<double>(summary.offered), "count", 1);
  report.Add("gen.completed", static_cast<double>(summary.completed), "count",
             1);
  report.Add("gen.failed",
             static_cast<double>(summary.offered - summary.completed), "count",
             1);
  // Tracing overhead: compare with query_p50_us of the untraced run on the
  // same seed; trace.span_ns is one span's own cost.
  report.Add("trace.query_p50_us",
             WindowedPercentile(load.latency_us, 50, kPercentileWindows), "us",
             load.latency_us.size());
  report.Add("trace.span_ns", SpanCostNs(), "ns", 100000);
}

/// One set-up repetition: the serving stack is torn down and built again
/// from the .snap file (the returned time), then brought up to the data
/// plane's current library when `reader` has moved past the snapshot.
/// Tearing down first keeps a single stack resident, as in a restarted
/// server, so repetitions do not inflate peak_rss_mb.
util::StatusOr<double> RebuildStack(const WorkloadSpec& spec,
                                    const Inputs& inputs,
                                    std::unique_ptr<Stack>& stack,
                                    const model::DeltaLog& reader,
                                    SpanRecorder* spans, uint64_t rep) {
  stack.reset();
  stack = std::make_unique<Stack>();
  util::StatusOr<double> took = BuildStack(spec, inputs, *stack, spans, rep);
  if (!took.ok()) return took;
  const uint32_t served =
      stack->manager->Acquire()->library->library.num_implementations();
  if (served != reader.library().num_implementations()) {
    if (util::Status synced = stack->manager->Reload(
            model::MakeSnapshot(reader.library(), reader.dir()));
        !synced.ok()) {
      return synced;
    }
  }
  return took;
}

int Run(const RunOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  Report report;
  util::StatusOr<Inputs> read = ReadInputs(options.dir);
  if (!read.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", read.status().ToString().c_str());
    return 2;
  }
  const Inputs& inputs = *read;
  SpanSet span_set;
  SpanRecorder* main_spans = options.trace ? span_set.New() : nullptr;

  // Set-up: the .snap file to a serve-ready engine. The other repetitions
  // are spread over the rounds below; each rebuilds the serving stack.
  auto stack = std::make_unique<Stack>();
  std::vector<double> setup_s;
  {
    auto took = BuildStack(spec, inputs, *stack, main_spans, 0);
    if (!took.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   took.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(*took);
  }

  // The data plane's directory: the served library as the base snapshot,
  // one writer and one reader (plus, traced, a second reader to time Poll).
  const std::string delta_dir = options.dir + "/delta";
  std::filesystem::remove_all(delta_dir);
  auto writer = model::DeltaLog::Create(
      delta_dir, stack->manager->Acquire()->library->library);
  model::DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  auto reader = writer.ok() ? model::DeltaLog::Open(delta_dir, reader_options)
                            : writer.status();
  std::optional<util::StatusOr<model::DeltaLog>> shadow;
  if (reader.ok() && options.trace) {
    shadow.emplace(model::DeltaLog::Open(delta_dir, reader_options));
  }
  if (!reader.ok() || (shadow && !shadow->ok())) {
    std::fprintf(stderr, "perfbench: delta directory: %s\n",
                 (reader.ok() ? shadow->status() : reader.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  model::DeltaLog* shadow_log = shadow ? &**shadow : nullptr;
  SpanRecorder* writer_spans = options.trace ? span_set.New() : nullptr;
  SpanRecorder* reader_spans = options.trace ? span_set.New() : nullptr;
  std::vector<SpanRecorder*> worker_spans;
  for (size_t w = 0; options.trace && w < spec.open_loop_workers; ++w) {
    worker_spans.push_back(span_set.New());
  }
  SpanRecorder* layer_spans = options.trace ? span_set.New() : nullptr;
  std::optional<LayerPass> layer_pass;
  if (options.trace) {
    layer_pass.emplace(spec, inputs, *stack, *layer_spans, report);
  }

  // The rounds. Each takes a slice of every phase — open loop, closed loop
  // or layer pass, idle-server appends, set-up repetitions — so every metric
  // samples the whole run: a neighbour's burst on a shared machine lasts
  // seconds, and a phase run in one block would see one burst or none.
  const double open_s = options.seconds * kOpenLoopShare;
  const std::vector<int64_t> schedule =
      PoissonSchedule(spec.open_loop_qps, open_s, options.seed);
  const size_t offered = schedule.size();
  LoadOutcome load(offered);
  DataPlaneResult data_plane;
  std::vector<double> pass_rates;
  size_t workspaces = 0;  // most minted by one stack's open loop
  size_t next_update = 0;
  size_t arrival = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    const int64_t window_start = static_cast<int64_t>(
        open_s * 1e9 * static_cast<double>(round) / kRounds);
    const int64_t window_end = static_cast<int64_t>(
        open_s * 1e9 * static_cast<double>(round + 1) / kRounds);
    const size_t begin = arrival;
    while (arrival < offered && schedule[arrival] < window_end) ++arrival;
    RunLoad(spec, inputs, *stack->engine, schedule, begin, arrival,
            window_start, worker_spans, load);
    workspaces = std::max(workspaces, stack->engine->workspaces_created());

    if (layer_pass) {
      const size_t total = layer_pass->total_queries();
      layer_pass->Run(*stack, total * round / kRounds,
                      total * (round + 1) / kRounds);
    } else {
      RunClosedLoop(spec, inputs, *stack->engine,
                    options.seconds * kClosedLoopShare / kRounds, pass_rates,
                    report);
    }
    RunDataPlane(inputs, next_update, spec.idle_appends / kRounds, *writer,
                 *reader, shadow_log, *stack->manager, writer_spans,
                 reader_spans, data_plane, report);
    for (size_t rep = 0; rep < kSetupRepsPerRound; ++rep) {
      auto took = RebuildStack(spec, inputs, stack, *reader, main_spans,
                               setup_s.size());
      if (!took.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     took.status().ToString().c_str());
        return 2;
      }
      setup_s.push_back(*took);
    }
  }

  RunOracleGate(spec, inputs, *stack, options.seed, report);

  const LoadSummary summary = Summarize(load, spec.latency_limit_us);
  report.attempted += summary.offered;
  for (size_t i = summary.completed; i < summary.offered; ++i) {
    report.Fail("open-loop query failed");
  }
  if (SamplesBeyond(summary.offered, 99) < 10) {
    report.Fail("too few open-loop samples for p99");
  }
  if (SamplesBeyond(data_plane.visible_ms.size(), 90) < 10) {
    report.Fail("too few visible appends for update_visible_p90_ms");
  }
  std::printf("open loop: %zu offered at %s/s over %s s in %zu rounds, %zu "
              "workers, highest supported percentile p%s, generator lag p50 "
              "%s us\n",
              summary.offered, FormatNumber(spec.open_loop_qps).c_str(),
              FormatNumber(open_s).c_str(), kRounds, spec.open_loop_workers,
              FormatNumber(HighestSupportedPercentile(summary.offered)).c_str(),
              FormatNumber(Percentile(summary.lag_us, 50)).c_str());
  std::printf("data plane: %llu appends, %llu publishes, %llu reload "
              "failures\n",
              static_cast<unsigned long long>(data_plane.appends),
              static_cast<unsigned long long>(data_plane.publishes),
              static_cast<unsigned long long>(data_plane.reload_failures));

  if (options.trace) {
    const std::vector<Span> spans = span_set.Merged();
    ReportLayers(spans, *layer_spans, layer_pass->counts(), load, summary,
                 workspaces, data_plane, report);
    if (!options.spans_out.empty()) {
      if (util::Status written = WriteSpans(spans, options.spans_out);
          !written.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      }
    }
  } else {
    ReportEndToEnd(load, summary, pass_rates, setup_s, data_plane, report);
  }
  PrintResult(report);
  return report.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  util::SetMinLogLevel(util::LogLevel::kWarn);
  util::FlagParser flags(argc, argv);
  const std::vector<std::string>& args = flags.positional();
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload"));
  util::StatusOr<int64_t> seed = flags.GetInt("seed", -1);
  const std::string dir = flags.GetString("dir");
  if (args.size() != 1 || (args[0] != "gen" && args[0] != "run") ||
      spec == nullptr || !seed.ok() || *seed < 0 || dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench gen|run --workload=NAME --seed=N --dir=DIR "
                 "[--seconds=S] [--trace=0|1] [--spans_out=PATH] "
                 "[--git_sha=SHA] [--source_sha256=HEX]\nworkloads:");
    for (const WorkloadSpec& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args[0] == "gen") {
    util::Status status =
        GenerateInputs(*spec, static_cast<uint64_t>(*seed), dir);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  RunOptions options;
  options.spec = spec;
  options.seed = static_cast<uint64_t>(*seed);
  options.dir = dir;
  options.spans_out = flags.GetString("spans_out");
  util::StatusOr<double> seconds = flags.GetDouble("seconds", 10);
  util::StatusOr<int64_t> trace = flags.GetInt("trace", 0);
  if (!seconds.ok() || *seconds <= 0 || !trace.ok() || *trace < 0 ||
      *trace > 1) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0, --trace 0 or 1\n");
    return 2;
  }
  options.seconds = *seconds;
  options.trace = *trace == 1;
  PrintEnvironment(spec->name, options.seed, options.seconds, options.trace,
                   flags.GetString("git_sha", "unknown"),
                   flags.GetString("source_sha256", "unknown"));
  return Run(options);
}

}  // namespace
}  // namespace goalrec::perfbench

int main(int argc, char** argv) { return goalrec::perfbench::Main(argc, argv); }
