// Shared machinery of the cs_bench workloads: the run's timeline and
// measurement window, the bounded load-generator fleet, per-participant
// tallies, and the session cycle (a settling pause, nine cold start->ready
// cycles, a warm-up, then the measured window) every workload goes through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/status.hpp"
#include "trace.hpp"

namespace cs::bench {

using Ns = std::uint64_t;
constexpr Ns kNsPerSec = 1'000'000'000ULL;
constexpr Ns kNever = std::numeric_limits<Ns>::max();

inline Ns now_ns() noexcept { return common::steady_now_ns(); }
inline Ns ns_from_ms(double ms) noexcept {
  return static_cast<Ns>(ms * 1e6);
}

/// Waits until steady-clock time `due` (returns at once when it has passed)
/// for an open-loop sender with period `interval`: it sleeps, then spins
/// the last min(interval / 4, 30 us), because a timer wakeup alone runs
/// about 10 us late and that lateness would count as generator lag. Returns
/// the CPU time the spin burned, which is the benchmark's cost, not the
/// stack's: cpu_us_per_op leaves it out (Tally::pacing_cpu_ns).
Ns pace_until(Ns due, Ns interval);

/// The Deadline at steady-clock time `t` (a real time, never kNever).
inline common::Deadline deadline_at(Ns t) noexcept {
  return common::Deadline{common::TimePoint{
      std::chrono::duration_cast<common::Duration>(std::chrono::nanoseconds(t))}};
}

/// Polls `done` every 200 us until it holds (true) or `deadline` passes.
template <typename Pred>
bool wait_for(common::Deadline deadline, Pred done) {
  while (!done()) {
    if (deadline.has_expired()) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Command-line settings of one run.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< report and trace files land here; empty = none
  std::string git_sha = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Service-side counters at one instant, flat name -> value; differenced
/// over the window by the harness.
using Counters = std::map<std::string, double>;

/// The measurement window. Every op is classified by its *intended* time:
/// ops due before the window (setup, warm-up) or after it (drain) are
/// neither counted nor timed. Within it, ops fall into one-second slots. In
/// trace mode the window has two parts: the first half runs untraced and
/// gives the throughput baseline, the second (part 1) records spans.
class Timeline {
 public:
  void open(Ns start, Ns mid, Ns end) noexcept;
  /// -1 outside the window, else the part `t` falls in (0, or 1 = traced).
  int part(Ns t) const noexcept;
  /// -1 outside the window, else the one-second slot `t` falls in.
  int slot(Ns t) const noexcept;
  bool in_window(Ns t) const noexcept { return part(t) >= 0; }
  bool traced(Ns t) const noexcept { return part(t) == 1; }
  /// The part per-layer counters cover: the traced half, or the whole
  /// window of an untraced run.
  int layer_part() const noexcept { return mid_.load() < end_.load() ? 1 : 0; }

 private:
  std::atomic<Ns> start_{kNever};
  std::atomic<Ns> mid_{kNever};
  std::atomic<Ns> end_{kNever};
};

/// Latency samples of one slot: every value up to kCap, beyond that a
/// uniform sample of them (reservoir sampling with a fixed-seed generator).
/// Raw values rather than histogram buckets, so quantiles carry every digit
/// instead of snapping to a bucket edge.
class Reservoir {
 public:
  static constexpr std::size_t kCap = 16384;
  void add(Ns value);
  /// Appends `other`'s kept values (the union is not re-sampled).
  void merge(const Reservoir& other);
  std::uint64_t seen() const noexcept { return seen_; }
  const std::vector<Ns>& values() const noexcept { return values_; }

 private:
  std::vector<Ns> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

/// Nearest-rank quantile `q` of `values`; 0 when empty.
double quantile(std::vector<Ns> values, double q);

/// Latency samples kept per one-second slot of the window, so a run can
/// report the median over its seconds rather than a figure one noisy
/// second can move.
class SlotSamples {
 public:
  void record(int slot, Ns value);
  void merge(const SlotSamples& other);
  std::uint64_t seen() const;
  /// Quantile `q` (ns) of each of the consecutive groups of slots that hold
  /// at least `min_samples` kept values each: as many groups as that
  /// allows, at most one per slot, at least one.
  std::vector<double> group_quantiles(double q,
                                      std::uint64_t min_samples) const;

 private:
  std::vector<Reservoir> slots_;
};

/// One participant's accumulators, written by its thread only and merged by
/// the session after the thread is joined — except the atomics, which the
/// harness reads live.
struct Tally {
  SlotSamples latency;        ///< op latency from the intended time, ns
  common::Histogram visible;  ///< steer -> visible, ns
  common::Histogram lag;      ///< open-loop lateness (actual - intended), ns
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;  ///< in-window ops that completed
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;  ///< content/order checks that failed
  std::uint64_t calls = 0;  ///< consumer API calls in the layer part
  /// Completed ops (the throughput count), whenever they were due.
  std::atomic<std::uint64_t> completions{0};
  /// CPU burned spinning in pace_until(), which cpu_us_per_op leaves out.
  std::atomic<Ns> pacing_ns{0};
  /// When the participant first received a frame or reply (0: not yet).
  std::atomic<Ns> ready_ns{0};

  void merge(const Tally& other);
  /// Counts one op whose intended time is `due`; returns its window part.
  int attempt(const Timeline& timeline, Ns due) {
    const int p = timeline.part(due);
    if (p >= 0) ++attempted;
    return p;
  }
  /// An op due in window part `part` (-1: outside) completed.
  void complete(int part) {
    if (part >= 0) ++delivered;
    completions.fetch_add(1, std::memory_order_relaxed);
  }
  void fail(int part) {
    if (part >= 0) ++failed;
  }
  void paced(Ns spun) { pacing_ns.fetch_add(spun, std::memory_order_relaxed); }
  /// Records readiness at `t`; later calls keep the first time.
  void ready(Ns t) {
    Ns unset = 0;
    ready_ns.compare_exchange_strong(unset, t);
  }
};

/// Everything one run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;
  /// Server-counter reconciliations that did not hold; any entry makes the
  /// run exit non-zero.
  std::vector<std::string> problems;
  Metrics end_to_end;
  Metrics per_layer;  ///< the BENCHMARK.json per-layer set (trace runs)
  Metrics layers;     ///< module-named layer metrics (trace runs)
  Metrics extra;      ///< workload-specific end-to-end rows
  bool valid = true;  ///< false when the open-loop generator ran late
  std::string validity;
  std::map<std::string, std::string> context;
};

/// The load generator of one session: its threads and client connections,
/// each held to at most `limit` (nproc) — the benchmark must measure the
/// stack, not a generator starving the scheduler.
class Fleet {
 public:
  explicit Fleet(std::size_t limit) : limit_(limit) {}
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Starts one generator thread; kResourceExhausted past the limit.
  common::Status spawn(std::function<void(const std::stop_token&)> body);
  /// Accounts one client connection; kResourceExhausted past the limit.
  common::Status add_connection();
  /// Requests stop and joins every thread; idempotent.
  void stop();
  /// CPU time consumed so far by each generator thread, ns.
  std::vector<Ns> cpu_times() const;
  std::size_t threads() const noexcept { return threads_.size(); }
  std::size_t connections() const noexcept { return connections_; }

 private:
  std::size_t limit_;
  std::size_t connections_ = 0;
  std::vector<std::jthread> threads_;
};

/// Process-wide context of one run: settings, timeline, trace.
class Run {
 public:
  Run(Settings settings, std::uint32_t trace_one_in);

  const Settings& settings() const noexcept { return settings_; }
  std::uint64_t seed() const noexcept { return settings_.seed; }
  std::size_t nproc() const noexcept { return nproc_; }
  const Timeline& timeline() const noexcept { return timeline_; }
  Timeline& timeline() noexcept { return timeline_; }
  Trace& trace() noexcept { return trace_; }
  /// True when the op `request` due at `due` is to be recorded as spans.
  bool tracing(Ns due, std::uint64_t request) const noexcept {
    return settings_.trace && timeline_.traced(due) && trace_.sampled(request);
  }

 private:
  Settings settings_;
  std::size_t nproc_;
  Timeline timeline_;
  Trace trace_;
};

/// Cumulative counters a session exposes, and its final accounting.
class Session {
 public:
  virtual ~Session() = default;
  /// Blocks until every participant has handshaken and received its first
  /// frame or reply; returns when the last of them did (kTimeout when one
  /// has not by `deadline`).
  common::Result<Ns> await_ready(common::Deadline deadline) const;
  /// Service counters now (the harness differences snapshots).
  virtual Counters counters() = 0;
  /// The participants' live counters now: "ops" and "pacing_ns".
  Counters live() const;
  /// Stops generating, drains for at most the grace period, tears the
  /// session down, verifies, and merges every participant's tally into
  /// `tally`. `begin`/`end` bracket the layer window (the traced part in
  /// trace mode). Fills workload-specific rows of `report`.
  virtual void finish(Tally& tally, const Counters& begin, const Counters& end,
                      Report& report) = 0;
  virtual Fleet& fleet() = 0;
  /// Interval of the open-loop sender whose lag Tally::lag records; 0 for
  /// a closed loop. A lag p99 above a tenth of it marks the run invalid.
  virtual Ns send_interval() const = 0;
  /// BENCHMARK.json per-layer name -> the module-named layer metric that
  /// plays that role in this workload.
  virtual std::vector<std::pair<std::string, std::string>> layer_roles()
      const = 0;

 protected:
  /// Registers a participant's tally for live() and await_ready(); it must
  /// outlive the session.
  void watch(const Tally& tally) { watched_.push_back(&tally); }

 private:
  std::vector<const Tally*> watched_;
};

/// How long a missing delivery may trail the window before it counts failed.
constexpr auto kGrace = std::chrono::seconds(1);
/// Poll slice of blocking client calls, so stop requests land promptly.
constexpr Ns kPollSliceNs = 20'000'000;

/// Runs the session cycle for one workload: `start(run)` brings up a
/// session (service, clients, generator threads), timed to readiness for
/// setup_s nine times; the last session is warmed up and measured.
Report run_cycles(
    Run& run,
    const std::function<common::Result<std::unique_ptr<Session>>(Run&)>& start);

/// Copies per-layer metric `from` (module name) to the BENCHMARK.json name
/// `to`; a missing source is a bug in the workload and throws.
void alias(Report& report, const std::string& to, const std::string& from);

/// Nanoseconds as microseconds.
inline double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// end[key] - begin[key]; a key missing from either snapshot throws.
double counter_delta(const Counters& begin, const Counters& end,
                     const std::string& key);
/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace cs::bench
