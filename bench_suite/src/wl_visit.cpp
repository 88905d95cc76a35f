// Workloads `steer` and `flood`: one simulation and three viewers around a
// visit::Multiplexer on TCP loopback. Viewer 0 holds the master role.
//
// steer: open loop. The sim sends a 1 KiB sample every 500 us and pulls the
//   steer parameter (request/reply) before each one, embedding the value it
//   got; the master steers a rising sequence number at 100/s. Latency runs
//   from the sample's due time to its receipt; steer -> visible runs from
//   the master's steer() call to its first sample embedding that value.
// flood: closed loop. 64 B samples go out back-to-back, no steering; the
//   mux sheds by design (drop-oldest), so missing deliveries are reported
//   as visit.mux_drop_ratio rather than as failures.
#include <algorithm>
#include <deque>
#include <vector>

#include "content.hpp"
#include "net/tcp.hpp"
#include "visit/client.hpp"
#include "visit/multiplexer.hpp"
#include "visit/viewer.hpp"
#include "workloads.hpp"

namespace cs::bench {

namespace {

using common::Deadline;
using common::Status;
using common::StatusCode;

constexpr std::uint32_t kSampleTag = 1;
constexpr std::uint32_t kSteerTag = 2;
constexpr std::size_t kViewers = 3;
constexpr const char* kPassword = "bench";
/// Request ids of steers live above the sample seqs.
constexpr std::uint64_t kSteerRequest = 1ULL << 62;

struct Shape {
  bool flood = false;
  std::size_t sample_bytes = 0;
  Ns interval = 0;        ///< sample period; 0 = back-to-back
  Ns steer_interval = 0;  ///< master steer period; 0 = no steering
};

constexpr Shape kSteerShape{false, 1024, 500'000, 10'000'000};
constexpr Shape kFloodShape{true, 64, 0, 0};

class VisitSession final : public Session {
 public:
  static StartResult start(Run& run, const Shape& shape);

  ~VisitSession() override {
    fleet_.stop();
    if (mux_) mux_->stop();
  }

  Counters counters() override {
    const auto s = mux_->stats();
    return {{"mux.published", static_cast<double>(s.samples_in)},
            {"mux.delivered", static_cast<double>(s.samples_out)},
            {"mux.dropped", static_cast<double>(s.samples_missed)},
            {"host.wakeups", static_cast<double>(s.event_host.wakeups)}};
  }

  void finish(Tally& tally, const Counters& begin, const Counters& end,
              Report& report) override;

  Fleet& fleet() override { return fleet_; }
  Ns send_interval() const override { return shape_.interval; }
  std::vector<std::pair<std::string, std::string>> layer_roles()
      const override {
    return {{"api.produce_p50_us", "visit.sim_send_p50_us"},
            {"api.consume_p50_us", "visit.viewer_poll_p50_us"},
            {"svc.gap_p50_us", "visit.sample_gap_p50_us"}};
  }

 private:
  struct Viewer {
    visit::ViewerClient client;
    Tally tally;
    std::atomic<std::uint64_t> last_seq{0};
    std::atomic<std::uint64_t> samples{0};  ///< every sample event received
  };

  VisitSession(Run& run, const Shape& shape)
      : run_(run), shape_(shape), fleet_(run.nproc()) {}

  void sim_loop(const std::stop_token& st);
  void viewer_loop(const std::stop_token& st, std::size_t index);

  Run& run_;
  Shape shape_;
  net::TcpNetwork tcp_;
  std::unique_ptr<visit::Multiplexer> mux_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  visit::SimClient sim_;
  Tally sim_tally_;
  Ns t0_ = 0;
  std::atomic<bool> stop_sending_{false};
  std::atomic<bool> sim_done_{false};
  std::atomic<std::uint64_t> last_sent_{0};  ///< seq of the last sample sent
  std::uint64_t sent_ok_ = 0;               ///< written by the sim thread
  std::uint64_t window_samples_ = 0;        ///< in-window samples sent
  std::atomic<std::uint64_t> max_steer_{0};  ///< highest value steered
  Fleet fleet_;  // last: its threads are joined before the rest dies
};

StartResult VisitSession::start(Run& run, const Shape& shape) {
  std::unique_ptr<VisitSession> s{new VisitSession(run, shape)};
  const visit::Multiplexer::Options options{.sim_address = "0",
                                            .viewer_address = "0",
                                            .password = kPassword,
                                            .metricsz_address = {}};
  auto mux = visit::Multiplexer::start(s->tcp_, options);
  if (!mux.is_ok()) return mux.status();
  s->mux_ = std::move(mux).value();

  visit::ViewerClient::Options viewer_options;
  viewer_options.mux_address = s->mux_->viewer_address();
  viewer_options.password = kPassword;
  for (std::size_t i = 0; i < kViewers; ++i) {
    if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
    auto client = visit::ViewerClient::connect(
        s->tcp_, viewer_options, Deadline::after(std::chrono::seconds(5)));
    if (!client.is_ok()) return client.status();
    s->viewers_.push_back(std::make_unique<Viewer>());
    s->viewers_.back()->client = std::move(client).value();
  }
  // Every viewer must be registered before the first sample, or it would
  // miss it and the delivery accounting would not reconcile.
  if (!wait_for(Deadline::after(std::chrono::seconds(5)), [&] {
        return s->mux_->stats().event_host.hosted == kViewers;
      })) {
    return Status{StatusCode::kTimeout, "viewers not hosted"};
  }
  if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
  visit::SimClientOptions sim_options;
  sim_options.server_address = s->mux_->sim_address();
  sim_options.password = kPassword;
  auto sim = visit::SimClient::connect(s->tcp_, sim_options,
                                       Deadline::after(std::chrono::seconds(5)));
  if (!sim.is_ok()) return sim.status();
  s->sim_ = std::move(sim).value();

  s->watch(s->sim_tally_);
  for (const auto& v : s->viewers_) s->watch(v->tally);
  s->t0_ = now_ns();
  VisitSession* self = s.get();
  for (std::size_t i = 0; i < kViewers; ++i) {
    if (Status st = s->fleet_.spawn([self, i](const std::stop_token& t) {
          self->viewer_loop(t, i);
        });
        !st.is_ok()) {
      return st;
    }
  }
  if (Status st = s->fleet_.spawn(
          [self](const std::stop_token& t) { self->sim_loop(t); });
      !st.is_ok()) {
    return st;
  }
  return std::unique_ptr<Session>(std::move(s));
}

void VisitSession::sim_loop(const std::stop_token& st) {
  const Timeline& tl = run_.timeline();
  const std::uint64_t seed = run_.seed();
  Tally& tally = sim_tally_;
  std::vector<std::uint8_t> payload(shape_.sample_bytes);
  std::uint64_t seq = 0;
  std::uint64_t last_reply = 0;
  while (!st.stop_requested() && !stop_sending_.load()) {
    ++seq;
    const Ns due = shape_.flood ? 0 : t0_ + (seq - 1) * shape_.interval;
    if (!shape_.flood) tally.paced(pace_until(due, shape_.interval));
    const Ns start = now_ns();
    const Ns stamp = shape_.flood ? start : due;
    const int part = tl.part(stamp);
    if (part >= 0) {
      // kViewers deliveries, plus the parameter request in steer.
      tally.attempted += kViewers + (shape_.flood ? 0 : 1);
      if (!shape_.flood) tally.lag.record(start - due);
    }
    SampleFields fields{seq, stamp, 0};
    Ns r0 = start;
    Ns r1 = start;
    if (!shape_.flood) {
      r0 = now_ns();
      auto reply = sim_.request<std::uint64_t>(
          kSteerTag, Deadline::after(std::chrono::seconds(1)));
      r1 = now_ns();
      if (!reply.is_ok()) {
        tally.fail(part);
      } else {
        // The mux answers with the master's latest value: never older than
        // the last reply, never ahead of what the master has steered.
        fields.steer = reply.value().empty() ? 0 : reply.value().front();
        if (fields.steer < last_reply || fields.steer > max_steer_.load()) {
          ++tally.check_failures;
          tally.fail(part);
        }
        last_reply = fields.steer;
      }
    }
    write_sample(seed, fields, payload);
    const Ns s0 = now_ns();
    const Status sent = sim_.send(kSampleTag, payload.data(), payload.size(),
                                  Deadline::after(std::chrono::seconds(1)));
    const Ns s1 = now_ns();
    if (!sent.is_ok()) {
      if (part >= 0) tally.failed += kViewers;
      if (sent.code() == StatusCode::kClosed) break;
      continue;
    }
    ++sent_ok_;
    if (part >= 0) ++window_samples_;
    last_sent_.store(seq);
    tally.ready(s1);
    // The flood starts once every viewer has the first sample, so that
    // setup_s times the session coming up, not viewers starved by it.
    if (seq == 1 && shape_.flood) {
      wait_for(Deadline::after(std::chrono::seconds(5)), [this] {
        return std::all_of(viewers_.begin(), viewers_.end(), [](const auto& v) {
          return v->tally.ready_ns.load() != 0;
        });
      });
    }
    if (run_.tracing(stamp, seq)) {
      Trace& trace = run_.trace();
      if (!shape_.flood) {
        trace.span("bench.gen_lag", "visit.sample", seq, due, start);
        trace.span("visit.sim_request", "visit.sample", seq, r0, r1);
      }
      trace.span("visit.sim_send", "visit.sample", seq, s0, s1);
    }
  }
  sim_done_.store(true);
}

void VisitSession::viewer_loop(const std::stop_token& st, std::size_t index) {
  Viewer& v = *viewers_[index];
  Tally& tally = v.tally;
  const Timeline& tl = run_.timeline();
  const std::uint64_t seed = run_.seed();
  const bool master = index == 0;
  const bool steering = master && shape_.steer_interval > 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t steered = 0;
  Ns next_steer = steering ? t0_ + shape_.steer_interval : kNever;
  struct Pending {
    std::uint64_t value;
    Ns due;
    Ns called;  ///< when steer() was called
  };
  std::deque<Pending> pending;  // steers not yet visible in a sample
  while (!st.stop_requested()) {
    if (steering && v.client.is_master() && now_ns() >= next_steer &&
        !stop_sending_.load()) {
      const Ns due = next_steer;
      next_steer += shape_.steer_interval;
      const std::uint64_t value = ++steered;
      const int part = tally.attempt(tl, due);
      max_steer_.store(value);
      const Ns c0 = now_ns();
      const Status s = v.client.steer<std::uint64_t>(
          kSteerTag, {value}, Deadline::after(std::chrono::seconds(1)));
      const Ns c1 = now_ns();
      if (!s.is_ok()) {
        tally.fail(part);
      } else {
        pending.push_back({value, due, c0});
        if (run_.tracing(due, kSteerRequest | value)) {
          run_.trace().span("visit.viewer_steer", "visit.steer",
                            kSteerRequest | value, c0, c1);
        }
      }
    }
    // The transport truncates a poll's remaining time to whole milliseconds,
    // so a deadline under 2 ms away would spin. Samples arriving every
    // 500 us wake the master in time for its next steer anyway, and
    // steer -> visible is timed from the call.
    const Ns p0 = now_ns();
    const Ns wake = std::max(std::min(next_steer, p0 + kPollSliceNs),
                             p0 + ns_from_ms(2));
    auto event = v.client.poll(deadline_at(wake));
    const Ns p1 = now_ns();
    if (tl.part(p0) == tl.layer_part()) ++tally.calls;
    if (!event.is_ok()) {
      if (event.status().code() == StatusCode::kClosed) break;
      continue;
    }
    if (event.value().kind != visit::ViewerClient::Event::Kind::kData ||
        event.value().tag != kSampleTag) {
      continue;
    }
    const auto& payload = event.value().message.payload;
    const SampleFields f = read_sample(payload);
    v.samples.fetch_add(1);
    const int part = tl.part(f.stamp_ns);
    const Ns c0 = now_ns();
    const bool ok = payload.size() == shape_.sample_bytes &&
                    f.seq > prev_seq && sample_filler_ok(seed, payload);
    const Ns c1 = now_ns();
    prev_seq = std::max(prev_seq, f.seq);
    if (!ok) {
      ++tally.check_failures;
      tally.fail(part);
    } else if (part >= 0) {
      tally.latency.record(tl.slot(f.stamp_ns), p1 - f.stamp_ns);
      tally.complete(part);
    }
    v.last_seq.store(f.seq);
    if (!steering || v.client.is_master()) tally.ready(p1);
    if (run_.tracing(f.stamp_ns, f.seq)) {
      Trace& trace = run_.trace();
      trace.span("visit.viewer_poll", nullptr, f.seq, p0, p1);
      trace.span("bench.verify", master ? "visit.sample" : nullptr, f.seq, c0,
                 c1);
      if (master) trace.root("visit.sample", f.seq, f.stamp_ns, p1);
    }
    while (!pending.empty() && pending.front().value <= f.steer) {
      const Pending done = pending.front();
      pending.pop_front();
      const int steer_part = tl.part(done.due);
      if (steer_part >= 0) {
        tally.visible.record(p1 - done.called);
        if (run_.tracing(done.due, kSteerRequest | done.value)) {
          run_.trace().root("visit.steer", kSteerRequest | done.value,
                            done.called, p1);
        }
      }
    }
  }
  // A steer that never became visible failed.
  for (const Pending& p : pending) tally.fail(tl.part(p.due));
}

void VisitSession::finish(Tally& tally, const Counters& begin,
                          const Counters& end, Report& report) {
  stop_sending_.store(true);
  const auto grace = Deadline::after(kGrace);
  wait_for(grace, [this] { return sim_done_.load(); });
  const std::uint64_t last = last_sent_.load();
  wait_for(grace, [&] {
    return std::all_of(viewers_.begin(), viewers_.end(), [&](const auto& v) {
      return v->last_seq.load() >= last;
    });
  });
  wait_for(grace, [this] {
    const auto s = mux_->stats();
    return s.samples_out + s.samples_missed == s.samples_in * kViewers;
  });
  fleet_.stop();
  const auto s = mux_->stats();
  mux_->stop();

  tally.merge(sim_tally_);
  std::uint64_t samples = 0;
  for (const auto& v : viewers_) {
    tally.merge(v->tally);
    samples += v->samples.load();
  }
  // Deliveries missing after the grace: shed by design in flood, failures
  // in steer.
  const std::uint64_t expected = window_samples_ * kViewers;
  const std::uint64_t missing =
      expected > tally.delivered ? expected - tally.delivered : 0;
  if (!shape_.flood) tally.failed += missing;

  // Server counters must reconcile with what the clients saw.
  if (s.samples_in != sent_ok_) {
    report.problems.push_back("mux published " + std::to_string(s.samples_in) +
                              " samples, sim sent " + std::to_string(sent_ok_));
  }
  if (s.samples_out + s.samples_missed != s.samples_in * kViewers) {
    report.problems.push_back(
        "mux delivered " + std::to_string(s.samples_out) + " + dropped " +
        std::to_string(s.samples_missed) + " != published x viewers " +
        std::to_string(s.samples_in * kViewers));
  }
  if (samples != s.samples_out) {
    report.problems.push_back("viewers received " + std::to_string(samples) +
                              " samples, mux delivered " +
                              std::to_string(s.samples_out));
  }

  if (!shape_.flood) {
    report.extra["steer_visible_p50_us"] = {us(tally.visible.p50()), "us"};
    report.extra["steer_visible_p99_us"] = {us(tally.visible.p99()), "us"};
  }
  const double d_delivered = counter_delta(begin, end, "mux.delivered");
  const double d_dropped = counter_delta(begin, end, "mux.dropped");
  report.layers["visit.mux_drop_ratio"] = {
      ratio(d_dropped, d_delivered + d_dropped), "ratio"};
  report.layers["visit.polls_per_sample"] = {
      ratio(static_cast<double>(tally.calls),
            counter_delta(begin, end, "ops")),
      "count"};
  const auto& h = s.event_host;
  report.layers["visit.mux_ingress_to_encode_p50_us"] = {
      us(h.stages.ingress_to_encode.p50()), "us"};
  report.layers["net.host_encode_to_enqueue_p50_us"] = {
      us(h.stages.encode_to_enqueue.p50()), "us"};
  report.layers["net.host_enqueue_to_write_p50_us"] = {
      us(h.stages.enqueue_to_write.p50()), "us"};
  report.layers["net.host_enqueue_to_write_p99_us"] = {
      us(h.stages.enqueue_to_write.p99()), "us"};
  report.layers["net.host_poll_p50_us"] = {us(h.poll_latency.p50()), "us"};
  report.layers["net.host_queue_high_water"] = {
      static_cast<double>(h.queue_high_water), "frames"};
  report.layers["net.host_wakeups_per_delivery"] = {
      ratio(counter_delta(begin, end, "host.wakeups"), d_delivered), "count"};
}

}  // namespace

StartResult start_steer(Run& run) { return VisitSession::start(run, kSteerShape); }
StartResult start_flood(Run& run) { return VisitSession::start(run, kFloodShape); }

}  // namespace cs::bench
