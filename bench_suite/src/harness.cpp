#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "common/rng.hpp"
#include "net/tcp.hpp"

namespace cs::bench {

using common::Status;
using common::StatusCode;

namespace {

constexpr int kSetupCycles = 9;
/// Idle time before the first cycle. On a shared VM the host runs the
/// guest's vCPUs at a lower priority for a while after a burst of CPU use
/// (a build, a saturating workload), and a run started straight after one
/// read up to 60 % slower. A few idle seconds let that pass.
constexpr auto kSettle = std::chrono::seconds(5);
constexpr Ns kWarmupNs = 1 * kNsPerSec;
constexpr Ns kTailNs = kNsPerSec / 10;
/// A latency group must hold this many samples: ten beyond its p99.
constexpr std::uint64_t kSamplesPerGroup = 1000;
/// Longest spin of an open-loop sender before its due time. A timer wakeup
/// is rarely later than this, and a longer spin takes a core from the
/// service threads, whose delayed wakeups then show as latency tails.
constexpr Ns kSpinNs = 30'000;

std::size_t count_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Ns process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<Ns>(tv.tv_sec) * kNsPerSec +
           static_cast<Ns>(tv.tv_usec) * 1000;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

Ns thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Ns>(ts.tv_sec) * kNsPerSec + static_cast<Ns>(ts.tv_nsec);
}

/// Peak resident set of this process image, MiB. VmHWM, not ru_maxrss:
/// the latter carries the parent's peak across fork and exec.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// The process-global TCP wire counters, CPU time and wall clock.
Counters process_counters() {
  const auto w = net::tcp_wire_stats();
  return {{"wall_s", static_cast<double>(now_ns()) / 1e9},
          {"cpu_ns", static_cast<double>(process_cpu_ns())},
          {"tcp.batches", static_cast<double>(w.send_batches)},
          {"tcp.messages", static_cast<double>(w.messages_sent)},
          {"tcp.short_writes", static_cast<double>(w.short_writes)},
          {"tcp.batch_messages_p50",
           static_cast<double>(w.batch_messages.p50())}};
}

/// Sleeps until `t`; the harness's own window boundaries need no spin.
void sleep_until_ns(Ns t) {
  const Ns now = now_ns();
  if (now < t) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Mean of `v` without its highest and lowest fifth.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 5;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Everything the harness samples at one window boundary.
struct Snapshot {
  Counters counters;
  std::vector<Ns> generator_cpu;
};

Snapshot snapshot(Session& session) {
  Snapshot s;
  s.counters = session.counters();
  s.counters.merge(session.live());
  s.counters.merge(process_counters());
  s.generator_cpu = session.fleet().cpu_times();
  return s;
}

}  // namespace

double counter_delta(const Counters& begin, const Counters& end,
                     const std::string& key) {
  const auto b = begin.find(key);
  const auto e = end.find(key);
  if (b == begin.end() || e == end.end()) {
    throw std::logic_error("counter not sampled: " + key);
  }
  return e->second - b->second;
}

Ns pace_until(Ns due, Ns interval) {
  const Ns spin = std::min<Ns>(interval / 4, kSpinNs);
  const Ns now = now_ns();
  if (now >= due) return 0;
  if (now + spin < due) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - spin - now));
  }
  const Ns cpu0 = thread_cpu_ns();
  while (now_ns() < due) {
  }
  return thread_cpu_ns() - cpu0;
}

void Timeline::open(Ns start, Ns mid, Ns end) noexcept {
  mid_.store(mid);
  end_.store(end);
  start_.store(start);
}

int Timeline::part(Ns t) const noexcept {
  if (t < start_.load(std::memory_order_relaxed) ||
      t >= end_.load(std::memory_order_relaxed)) {
    return -1;
  }
  return t < mid_.load(std::memory_order_relaxed) ? 0 : 1;
}

int Timeline::slot(Ns t) const noexcept {
  if (part(t) < 0) return -1;
  return static_cast<int>((t - start_.load(std::memory_order_relaxed)) /
                          kNsPerSec);
}

void Reservoir::add(Ns value) {
  ++seen_;
  if (values_.size() < kCap) {
    values_.push_back(value);
    return;
  }
  const std::uint64_t j = common::splitmix64(state_) % seen_;
  if (j < kCap) values_[j] = value;
}

void Reservoir::merge(const Reservoir& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  seen_ += other.seen_;
}

double quantile(std::vector<Ns> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return static_cast<double>(*nth);
}

void SlotSamples::record(int slot, Ns value) {
  if (slot < 0) return;
  if (static_cast<std::size_t>(slot) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(slot) + 1);
  }
  slots_[static_cast<std::size_t>(slot)].add(value);
}

void SlotSamples::merge(const SlotSamples& other) {
  if (other.slots_.size() > slots_.size()) slots_.resize(other.slots_.size());
  for (std::size_t i = 0; i < other.slots_.size(); ++i) {
    slots_[i].merge(other.slots_[i]);
  }
}

std::uint64_t SlotSamples::seen() const {
  std::uint64_t total = 0;
  for (const auto& r : slots_) total += r.seen();
  return total;
}

std::vector<double> SlotSamples::group_quantiles(
    double q, std::uint64_t min_samples) const {
  std::uint64_t total = 0;
  for (const auto& r : slots_) total += r.values().size();
  const std::uint64_t groups =
      std::clamp<std::uint64_t>(total / std::max<std::uint64_t>(min_samples, 1),
                                1, std::max<std::size_t>(slots_.size(), 1));
  std::vector<double> per_group;
  std::vector<Ns> group;
  std::uint64_t left = groups;
  for (const auto& r : slots_) {
    group.insert(group.end(), r.values().begin(), r.values().end());
    if (left > 1 && group.size() * groups >= total) {  // holds its share
      per_group.push_back(quantile(std::move(group), q));
      group.clear();
      --left;
    }
  }
  if (!group.empty()) per_group.push_back(quantile(std::move(group), q));
  return per_group;
}

void Tally::merge(const Tally& other) {
  latency.merge(other.latency);
  visible.merge(other.visible);
  lag.merge(other.lag);
  attempted += other.attempted;
  delivered += other.delivered;
  failed += other.failed;
  check_failures += other.check_failures;
  calls += other.calls;
  completions += other.completions.load();
  pacing_ns += other.pacing_ns.load();
}

common::Result<Ns> Session::await_ready(common::Deadline deadline) const {
  Ns last = 0;
  const bool all = wait_for(deadline, [&] {
    last = 0;
    for (const Tally* t : watched_) {
      const Ns at = t->ready_ns.load();
      if (at == 0) return false;
      last = std::max(last, at);
    }
    return true;
  });
  if (!all) {
    return Status{StatusCode::kTimeout, "a participant got no frame or reply"};
  }
  return last;
}

Counters Session::live() const {
  double ops = 0;
  double pacing = 0;
  for (const Tally* t : watched_) {
    ops += static_cast<double>(t->completions.load(std::memory_order_relaxed));
    pacing += static_cast<double>(t->pacing_ns.load(std::memory_order_relaxed));
  }
  return {{"ops", ops}, {"pacing_ns", pacing}};
}

Status Fleet::spawn(std::function<void(const std::stop_token&)> body) {
  if (threads_.size() + 1 > limit_) {
    return Status{StatusCode::kResourceExhausted,
                  "generator would use more threads than nproc (" +
                      std::to_string(limit_) + ")"};
  }
  threads_.emplace_back([body = std::move(body)](std::stop_token st) {
    // Open-loop senders sleep until each op is due; the default 50 us
    // timer slack would be charged to every op as generator lag.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      body(st);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cs_bench: generator thread failed: %s\n",
                   e.what());
      std::terminate();
    }
  });
  return Status::ok();
}

Status Fleet::add_connection() {
  if (connections_ + 1 > limit_) {
    return Status{StatusCode::kResourceExhausted,
                  "generator would open more connections than nproc (" +
                      std::to_string(limit_) + ")"};
  }
  ++connections_;
  return Status::ok();
}

void Fleet::stop() {
  for (auto& t : threads_) t.request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::vector<Ns> Fleet::cpu_times() const {
  std::vector<Ns> out;
  for (const auto& t : threads_) {
    clockid_t clock{};
    timespec ts{};
    // A thread that already returned has no clock any more: it costs 0.
    if (pthread_getcpuclockid(const_cast<std::jthread&>(t).native_handle(),
                              &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      out.push_back(0);
      continue;
    }
    out.push_back(static_cast<Ns>(ts.tv_sec) * kNsPerSec +
                  static_cast<Ns>(ts.tv_nsec));
  }
  return out;
}

Run::Run(Settings settings, std::uint32_t trace_one_in)
    : settings_(std::move(settings)),
      nproc_(count_cpus()),
      trace_(settings_.trace, trace_one_in) {}

void alias(Report& report, const std::string& to, const std::string& from) {
  const auto it = report.layers.find(from);
  if (it == report.layers.end()) {
    throw std::logic_error("layer metric not measured: " + from);
  }
  report.per_layer[to] = it->second;
}

Report run_cycles(
    Run& run,
    const std::function<common::Result<std::unique_ptr<Session>>(Run&)>&
        start) {
  Report report;
  std::vector<double> setup;
  std::unique_ptr<Session> session;
  std::this_thread::sleep_for(kSettle);
  for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
    session.reset();  // the previous cycle is torn down before the timing
    const Ns t0 = now_ns();
    auto started = start(run);
    if (!started.is_ok()) {
      report.problems.push_back("start: " + started.status().to_string());
      return report;
    }
    session = std::move(started).value();
    const auto ready =
        session->await_ready(common::Deadline::after(std::chrono::seconds(10)));
    if (!ready.is_ok()) {
      report.problems.push_back("ready: " + ready.status().to_string());
      return report;
    }
    setup.push_back(static_cast<double>(ready.value() - t0) / 1e9);
  }

  // The window: one-second slots after the warm-up. A traced run's first
  // half is its untraced baseline.
  const bool trace = run.settings().trace;
  const Ns window_start = now_ns() + kWarmupNs;
  const Ns window_ns = static_cast<Ns>(run.settings().seconds * 1e9);
  const Ns window_end = window_start + window_ns;
  std::vector<Ns> bounds;
  for (Ns t = window_start; t < window_end; t += kNsPerSec) bounds.push_back(t);
  const std::size_t whole_slots = bounds.size();
  std::size_t mid = bounds.size();
  if (trace) {
    mid = whole_slots / 2;
    if (mid == 0) {
      mid = 1;
      bounds.push_back(window_start + window_ns / 2);
    }
  }
  bounds.push_back(window_end);
  run.timeline().open(window_start, trace ? bounds[mid] : window_end,
                      window_end);

  std::vector<Snapshot> snaps;
  for (const Ns b : bounds) {
    sleep_until_ns(b);
    snaps.push_back(snapshot(*session));
  }
  const Snapshot& first = snaps.front();
  const Snapshot& last = snaps.back();
  const Snapshot& layer_first = trace ? snaps[mid] : first;

  report.context["nproc"] = std::to_string(run.nproc());
  report.context["generator_threads"] =
      std::to_string(session->fleet().threads());
  report.context["generator_connections"] =
      std::to_string(session->fleet().connections());

  // Generation runs on briefly past the window so ops due near its end
  // (a steer awaiting the next sample) can complete before finish() stops it.
  sleep_until_ns(window_end + kTailNs);
  Tally tally;
  session->finish(tally, layer_first.counters, last.counters, report);
  const Ns interval = session->send_interval();
  const auto roles = session->layer_roles();
  session.reset();

  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.check_failures = tally.check_failures;
  const double lag_p99_us = us(tally.lag.p99());
  report.extra["ops_attempted"] = {static_cast<double>(tally.attempted), "count"};
  report.extra["ops_failed"] = {static_cast<double>(tally.failed), "count"};
  report.extra["latency_samples"] = {
      static_cast<double>(tally.latency.seen()), "count"};
  report.extra["bench.gen_lag_p99_us"] = {lag_p99_us, "us"};
  if (interval > 0 && tally.lag.p99() * 10 > interval) {
    report.valid = false;
    report.validity = "generator lag p99 " + std::to_string(lag_p99_us) +
                      " us exceeds 10% of the " + std::to_string(us(interval)) +
                      " us send interval";
  }

  // Layer metrics over the layer window (the traced half in trace mode).
  const Counters& lb = layer_first.counters;
  const Counters& le = last.counters;
  const double layer_ops = counter_delta(lb, le, "ops");
  const double batches = counter_delta(lb, le, "tcp.batches");
  report.layers["net.tcp_msgs_per_batch"] = {
      ratio(counter_delta(lb, le, "tcp.messages"), batches), "count"};
  report.layers["net.tcp_batches_per_op"] = {ratio(batches, layer_ops),
                                             "count"};
  report.layers["net.tcp_short_writes"] = {
      counter_delta(lb, le, "tcp.short_writes"), "count"};
  report.layers["net.tcp_batch_messages_p50"] = {
      le.at("tcp.batch_messages_p50"), "count"};
  double busiest = 0;
  for (std::size_t i = 0; i < layer_first.generator_cpu.size() &&
                          i < last.generator_cpu.size();
       ++i) {
    busiest = std::max(busiest, static_cast<double>(last.generator_cpu[i] -
                                                    layer_first.generator_cpu[i]));
  }
  report.layers["bench.gen_busy_ratio"] = {
      ratio(busiest / 1e9, counter_delta(lb, le, "wall_s")), "ratio"};
  report.layers["bench.gen_lag_p99_us"] = {lag_p99_us, "us"};

  if (!trace) {
    // Each end-to-end figure summarises the window's one-second slots (or
    // groups of slots holding enough samples, for the percentiles): the
    // mean with the highest and lowest fifth dropped, and for p99 — which
    // a single stalled second can own — the median.
    std::vector<double> rates;
    std::vector<double> cpu_per_op;
    for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
      const Counters& a = snaps[i].counters;
      const Counters& b = snaps[i + 1].counters;
      const double ops = counter_delta(a, b, "ops");
      rates.push_back(ratio(ops, counter_delta(a, b, "wall_s")));
      const double cpu =
          counter_delta(a, b, "cpu_ns") - counter_delta(a, b, "pacing_ns");
      cpu_per_op.push_back(ratio(std::max(cpu, 0.0) / 1e3, ops));
    }
    report.end_to_end["latency_p50_us"] = {
        trimmed_mean(tally.latency.group_quantiles(0.50, kSamplesPerGroup)) /
            1e3,
        "us"};
    report.end_to_end["latency_p90_us"] = {
        trimmed_mean(tally.latency.group_quantiles(0.90, kSamplesPerGroup)) /
            1e3,
        "us"};
    // p99 is reported but not bound: on a shared VM it follows the host's
    // millisecond vCPU preemptions more than the stack (see README.md).
    report.extra["latency_p99_us"] = {
        median(tally.latency.group_quantiles(0.99, kSamplesPerGroup)) / 1e3,
        "us"};
    report.end_to_end["throughput_per_s"] = {trimmed_mean(rates), "ops/s"};
    report.end_to_end["cpu_us_per_op"] = {trimmed_mean(cpu_per_op), "us"};
    report.end_to_end["rss_peak_mib"] = {peak_rss_mib(), "MiB"};
    report.end_to_end["setup_s"] = {median(setup), "s"};
    const double cpu = counter_delta(first.counters, last.counters, "cpu_ns");
    report.extra["bench.pacing_cpu_share"] = {
        ratio(counter_delta(first.counters, last.counters, "pacing_ns"), cpu),
        "ratio"};
    return report;
  }

  // Traced run: spans, and throughput of the traced vs the untraced half.
  const auto rate = [](const Snapshot& a, const Snapshot& b) {
    return ratio(counter_delta(a.counters, b.counters, "ops"),
                 counter_delta(a.counters, b.counters, "wall_s"));
  };
  const double untraced_tput = rate(first, snaps[mid]);
  const double traced_tput = rate(snaps[mid], last);
  const auto summary = run.trace().summarize();
  for (const auto& [name, ns] : summary.durations) {
    report.layers[name + "_p50_us"] = {quantile(ns, 0.5) / 1e3, "us"};
  }
  for (const auto& [name, ns] : summary.self_times) {
    report.layers[name + "_gap_p50_us"] = {quantile(ns, 0.5) / 1e3, "us"};
  }
  report.layers["bench.trace_overhead_ratio"] = {
      ratio(traced_tput, untraced_tput), "ratio"};
  report.layers["bench.spans"] = {static_cast<double>(summary.spans), "count"};
  report.layers["bench.spans_dropped"] = {static_cast<double>(summary.dropped),
                                          "count"};
  report.context["trace_untraced_throughput_per_s"] =
      std::to_string(untraced_tput);
  report.context["trace_traced_throughput_per_s"] = std::to_string(traced_tput);

  for (const char* name : {"bench.verify_p50_us", "net.tcp_msgs_per_batch",
                           "net.tcp_batches_per_op", "bench.gen_busy_ratio",
                           "bench.trace_overhead_ratio"}) {
    alias(report, name, name);
  }
  for (const auto& [role, metric] : roles) alias(report, role, metric);
  return report;
}

}  // namespace cs::bench
