#include "bench_lib.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/random.h"

namespace goalrec::perfbench {

namespace {

/// Nearest rank (1-based) of the p-th percentile of n samples. The epsilon
/// keeps exact products such as 0.99 × 1000 from rounding up a rank.
size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Sleeps until shortly before `due`, then spins: sleep_until alone wakes
/// tens of microseconds late, which would swamp a microsecond-scale query.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpinWindow = std::chrono::milliseconds(1);
  if (due - Clock::now() > kSpinWindow) {
    std::this_thread::sleep_until(due - kSpinWindow);
  }
  while (Clock::now() < due) {
  }
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

double WindowedPercentile(const std::vector<double>& samples, double p,
                          size_t max_windows) {
  const size_t n = samples.size();
  size_t windows = std::max<size_t>(max_windows, 1);
  while (windows > 1 && SamplesBeyond(n / windows, p) < 10) --windows;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + n * w / windows,
                            samples.begin() + n * (w + 1) / windows),
        p));
  }
  return Percentile(std::move(per_window), 50);
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed) {
  std::vector<int64_t> schedule;
  util::Rng rng(seed, /*stream=*/0x5eed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.UniformDouble()) / rate_per_s;
    if (t >= seconds) break;
    schedule.push_back(static_cast<int64_t>(t * 1e9));
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(const std::vector<int64_t>& schedule_ns,
                           size_t workers,
                           const std::function<void(size_t, size_t)>& serve) {
  const size_t n = schedule_ns.size();
  OpenLoopResult result;
  result.latency_us.assign(n, 0.0);
  result.start_delay_us.assign(n, 0.0);
  // uint8_t, not bool: workers write neighbouring entries concurrently.
  std::vector<uint8_t> idle(n, 0);
  std::atomic<size_t> next{0};
  // A short lead so every worker is running before the first arrival.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  auto body = [&](size_t worker) {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const Clock::time_point due =
          start + std::chrono::nanoseconds(schedule_ns[i]);
      idle[i] = Clock::now() < due;
      if (idle[i]) WaitUntil(due);
      const Clock::time_point began = Clock::now();
      serve(worker, i);
      const Clock::time_point done = Clock::now();
      result.start_delay_us[i] = MicrosBetween(due, began);
      result.latency_us[i] = MicrosBetween(due, done);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(body, w);
  for (std::thread& t : threads) t.join();
  result.found_idle_worker.assign(idle.begin(), idle.end());
  return result;
}

namespace {

bool RungsHealthy(const std::vector<serve::RungReport>& rungs) {
  for (const serve::RungReport& rung : rungs) {
    switch (rung.outcome) {
      case serve::RungOutcome::kDeadlineExceeded:
      case serve::RungOutcome::kError:
      case serve::RungOutcome::kBreakerOpen:
        return false;
      case serve::RungOutcome::kServed:
      case serve::RungOutcome::kEmpty:
        break;
    }
  }
  return true;
}

}  // namespace

QueryOutcome Classify(const util::StatusOr<serve::ServeResult>& result) {
  if (!result.ok()) return QueryOutcome::kFailed;
  return RungsHealthy(result.value().rungs) ? QueryOutcome::kHealthy
                                            : QueryOutcome::kLostRung;
}

bool IsGood(QueryOutcome outcome, double latency_us, double limit_us) {
  return outcome == QueryOutcome::kHealthy && latency_us <= limit_us;
}

int32_t SpanRecorder::Begin(const char* name, int32_t parent,
                            uint64_t query_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.query_id = query_id;
  span.start_ns = SinceEpochNs(Clock::now());
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = SinceEpochNs(Clock::now());
}

void SpanRecorder::Discard(int32_t index) {
  spans_.resize(static_cast<size_t>(index));
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [begin, end] : kids) {
      int64_t from = std::max(begin, reach);
      int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

util::Status WriteSpans(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return util::InternalError("cannot write " + path);
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\tquery_id\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%s\t%lld\t%lld\t%d\t%llu\t%lld\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.query_id),
                 static_cast<long long>(self[i]));
  }
  if (std::fclose(out) != 0) {
    return util::InternalError("cannot finish writing " + path);
  }
  return util::Status::Ok();
}

}  // namespace goalrec::perfbench
