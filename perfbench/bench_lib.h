#ifndef GOALREC_PERFBENCH_BENCH_LIB_H_
#define GOALREC_PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "util/status.h"

// The benchmark's own measurement pieces, kept apart from the driver so the
// unit tests in bench_lib_test.cc can check them: the percentile rule, the
// open-loop arrival schedule and generator, the good/bad classification of
// a served query, and the in-memory span recorder of the traced run.

namespace goalrec::perfbench {

using Clock = std::chrono::steady_clock;

// --- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// samples beyond it; 0 when even p50 does not (fewer than 20 samples).
double HighestSupportedPercentile(size_t n);

/// The p-th percentile of `samples`, taken in the order they were measured,
/// made robust to a burst on a shared machine: the samples are cut into
/// consecutive windows, as many as `max_windows` allows while every window
/// keeps at least ten samples beyond p, and the median (nearest rank) of the
/// windows' percentiles is returned. One window is Percentile(samples, p).
double WindowedPercentile(const std::vector<double>& samples, double p,
                          size_t max_windows);

// --- Open-loop load ---------------------------------------------------------

/// Poisson arrivals: offsets from the start of the run, in nanoseconds, with
/// exponential gaps at `rate_per_s`, up to `seconds`. The same seed gives the
/// same schedule.
std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed);

struct OpenLoopResult {
  /// Per arrival, from its scheduled send to its completion.
  std::vector<double> latency_us;
  /// Per arrival, from its scheduled send to the moment a worker started it.
  /// For an arrival that found a worker idle this is the generator's own
  /// timer lag; otherwise it includes the queueing wait.
  std::vector<double> start_delay_us;
  /// Per arrival, whether a worker was already waiting for it (its start
  /// delay is then pure generator lag).
  std::vector<bool> found_idle_worker;
};

/// Runs one arrival schedule through a shared FIFO queue served by
/// `workers` threads: each worker claims the next unclaimed arrival, waits
/// for its scheduled send time if it is still ahead (sleeping, then spinning
/// for the last stretch), and calls `serve(worker, index)`. Every latency is
/// timed from the arrival's *scheduled* send, so a stall also charges the
/// arrivals queued behind it.
OpenLoopResult RunOpenLoop(const std::vector<int64_t>& schedule_ns,
                           size_t workers,
                           const std::function<void(size_t, size_t)>& serve);

// --- Query classification ---------------------------------------------------

/// How a served query went, before its latency is known.
enum class QueryOutcome : uint8_t {
  kFailed,    // not OK: shed, cancelled or every rung failed
  kLostRung,  // OK, but a rung was lost to a deadline, an error or an open
              // breaker
  kHealthy,   // OK, every rung served or answered empty: kEmpty is a
              // property of the data, not a failure
};

QueryOutcome Classify(const util::StatusOr<serve::ServeResult>& result);

/// A query is good when it was healthy and completed within `limit_us` of
/// its scheduled send. Failed and shed queries are bad.
bool IsGood(QueryOutcome outcome, double latency_us, double limit_us);

// --- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the causing span in the same recorder; -1 for a root.
  int32_t parent = -1;
  uint64_t query_id = 0;
};

/// One thread's spans, kept in memory for the whole run. Not thread-safe:
/// every thread that records owns its own recorder.
class SpanRecorder {
 public:
  /// Opens a span now; returns its index for End() and as a parent.
  int32_t Begin(const char* name, int32_t parent, uint64_t query_id);
  void End(int32_t index);
  /// Drops the span at `index` and every span recorded after it.
  void Discard(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a span when `recorder` is non-null, otherwise just runs it.
template <typename Fn>
auto Traced(SpanRecorder* recorder, const char* name, int32_t parent,
            uint64_t query_id, Fn&& fn) {
  if (recorder == nullptr) return fn();
  struct Closer {
    SpanRecorder* r;
    int32_t i;
    ~Closer() { r->End(i); }
  } closer{recorder, recorder->Begin(name, parent, query_id)};
  return fn();
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Same indexing as `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes spans as tab-separated lines: name, start_ns, end_ns, parent,
/// query_id, self_ns.
util::Status WriteSpans(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace goalrec::perfbench

#endif  // GOALREC_PERFBENCH_BENCH_LIB_H_
