// Workload `media`: the Access Grid video path. An ag::MediaStream sends
// 64x64 frames of seeded colour cells into an in-process multicast group at
// 1000 frames/s, open loop. One receiver is a group member; two sit behind
// an ag::UnicastBridge and receive over TCP loopback, decoding with
// viz::decompress_frame. Latency runs from a frame's due time to its decode
// at the receiver, and every pixel is compared with the regenerated frame
// (the RLE codec is lossless).
#include <algorithm>
#include <optional>
#include <vector>

#include "ag/media.hpp"
#include "content.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "viz/compress.hpp"
#include "workloads.hpp"

namespace cs::bench {

namespace {

using common::Deadline;
using common::Status;
using common::StatusCode;

constexpr const char* kGroup = "venue/video";
constexpr std::size_t kBridged = 2;
constexpr std::size_t kReceivers = 1 + kBridged;
constexpr Ns kFrameInterval = kNsPerSec / 1000;
/// The receiver whose spans form each frame's root: the first bridged one.
constexpr std::size_t kRootReceiver = 1;

class MediaSession final : public Session {
 public:
  static StartResult start(Run& run);

  ~MediaSession() override {
    fleet_.stop();
    if (bridge_) bridge_->stop();
  }

  Counters counters() override {
    const auto h = bridge_->host_stats();
    return {{"bridge.delivered", static_cast<double>(h.data_delivered)},
            {"bridge.dropped", static_cast<double>(h.data_dropped)},
            {"bridge.wakeups", static_cast<double>(h.wakeups)},
            {"sender.frames", static_cast<double>(sender_.frames_sent())},
            {"sender.bytes", static_cast<double>(sender_.bytes_sent())}};
  }

  void finish(Tally& tally, const Counters& begin, const Counters& end,
              Report& report) override;

  Fleet& fleet() override { return fleet_; }
  Ns send_interval() const override { return kFrameInterval; }
  std::vector<std::pair<std::string, std::string>> layer_roles()
      const override {
    return {{"api.produce_p50_us", "ag.send_frame_p50_us"},
            {"api.consume_p50_us", "net.conn_recv_p50_us"},
            {"svc.gap_p50_us", "ag.frame_gap_p50_us"}};
  }

 private:
  struct Receiver {
    std::optional<ag::MediaStream> direct;  ///< group member, or
    net::ConnectionPtr bridged;             ///< a bridge client
    Tally tally;
    std::atomic<std::uint64_t> last_seq{0};
    std::atomic<std::uint64_t> frames{0};
  };

  explicit MediaSession(Run& run) : run_(run), fleet_(run.nproc()) {}

  void send_loop(const std::stop_token& st);
  void receive_loop(const std::stop_token& st, std::size_t index);
  Ns due(std::uint64_t seq) const { return t0_ + (seq - 1) * kFrameInterval; }

  Run& run_;
  net::InProcNetwork group_net_;
  net::TcpNetwork tcp_;
  std::unique_ptr<ag::UnicastBridge> bridge_;
  ag::MediaStream sender_;
  std::vector<std::unique_ptr<Receiver>> receivers_;
  Tally send_tally_;
  Ns t0_ = 0;
  std::atomic<bool> stop_sending_{false};
  std::atomic<bool> send_done_{false};
  std::atomic<std::uint64_t> last_sent_{0};
  std::uint64_t sent_ok_ = 0;        ///< written by the sender thread
  std::uint64_t window_frames_ = 0;  ///< likewise
  Fleet fleet_;  // last: its threads are joined before the rest dies
};

StartResult MediaSession::start(Run& run) {
  std::unique_ptr<MediaSession> s{new MediaSession(run)};
  const ag::UnicastBridge::Options options{.group = kGroup, .address = "0"};
  auto bridge = ag::UnicastBridge::start(s->group_net_, s->tcp_, options);
  if (!bridge.is_ok()) return bridge.status();
  s->bridge_ = std::move(bridge).value();

  if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
  auto sender = ag::MediaStream::join(s->group_net_, kGroup);
  if (!sender.is_ok()) return sender.status();
  s->sender_ = std::move(sender).value();
  for (std::size_t i = 0; i < kReceivers; ++i) {
    if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
    auto r = std::make_unique<Receiver>();
    if (i == 0) {
      auto stream = ag::MediaStream::join(s->group_net_, kGroup);
      if (!stream.is_ok()) return stream.status();
      r->direct = std::move(stream).value();
    } else {
      auto conn = s->tcp_.connect(s->bridge_->address(),
                                  Deadline::after(std::chrono::seconds(5)));
      if (!conn.is_ok()) return conn.status();
      r->bridged = std::move(conn).value();
    }
    s->receivers_.push_back(std::move(r));
  }
  // The bridge registers clients on its group pump; both must be hosted
  // before the first frame or they would miss it.
  if (!wait_for(Deadline::after(std::chrono::seconds(5)), [&] {
        return s->bridge_->host_stats().hosted == kBridged;
      })) {
    return Status{StatusCode::kTimeout, "bridge clients not hosted"};
  }
  s->watch(s->send_tally_);
  for (const auto& r : s->receivers_) s->watch(r->tally);
  s->t0_ = now_ns();
  MediaSession* self = s.get();
  for (std::size_t i = 0; i < kReceivers; ++i) {
    if (Status st = s->fleet_.spawn([self, i](const std::stop_token& t) {
          self->receive_loop(t, i);
        });
        !st.is_ok()) {
      return st;
    }
  }
  if (Status st = s->fleet_.spawn(
          [self](const std::stop_token& t) { self->send_loop(t); });
      !st.is_ok()) {
    return st;
  }
  return std::unique_ptr<Session>(std::move(s));
}

void MediaSession::send_loop(const std::stop_token& st) {
  const Timeline& tl = run_.timeline();
  Tally& tally = send_tally_;
  std::uint64_t seq = 0;
  while (!st.stop_requested() && !stop_sending_.load()) {
    ++seq;
    const viz::Image frame = media_frame(run_.seed(), seq);
    const Ns at = due(seq);
    tally.paced(pace_until(at, kFrameInterval));
    const Ns s0 = now_ns();
    const int part = tl.part(at);
    if (part >= 0) {
      tally.attempted += kReceivers;
      tally.lag.record(s0 - at);
    }
    const Status s = sender_.send_frame(frame);
    const Ns s1 = now_ns();
    if (!s.is_ok()) {
      if (part >= 0) tally.failed += kReceivers;
      continue;
    }
    ++sent_ok_;
    if (part >= 0) ++window_frames_;
    last_sent_.store(seq);
    tally.ready(s1);
    if (run_.tracing(at, seq)) {
      run_.trace().span("bench.gen_lag", "ag.frame", seq, at, s0);
      run_.trace().span("ag.send_frame", "ag.frame", seq, s0, s1);
    }
  }
  send_done_.store(true);
}

void MediaSession::receive_loop(const std::stop_token& st, std::size_t index) {
  Receiver& r = *receivers_[index];
  Tally& tally = r.tally;
  const Timeline& tl = run_.timeline();
  const bool root = index == kRootReceiver;
  std::uint64_t prev_seq = 0;
  while (!st.stop_requested()) {
    const Ns r0 = now_ns();
    const auto wake = deadline_at(r0 + kPollSliceNs);
    common::Result<viz::Image> frame =
        common::Status{StatusCode::kTimeout, "no frame"};
    Ns r1 = r0;
    Ns d0 = r0;
    if (r.direct) {
      frame = r.direct->receive_frame(wake);
      r1 = d0 = now_ns();
    } else {
      auto raw = r.bridged->recv(wake);
      r1 = now_ns();
      if (raw.is_ok()) {
        d0 = now_ns();
        frame = viz::decompress_frame(raw.value());
      } else {
        frame = raw.status();
      }
    }
    const Ns d1 = now_ns();
    if (tl.part(r0) == tl.layer_part()) ++tally.calls;
    if (!frame.is_ok()) {
      const auto code = frame.status().code();
      if (code == StatusCode::kClosed) break;
      if (code != StatusCode::kTimeout) ++tally.check_failures;  // undecodable
      continue;
    }
    const std::uint64_t seq = media_seq(frame.value());
    const Ns at = due(seq);
    const int part = tl.part(at);
    const Ns v0 = now_ns();
    const bool ok =
        seq > prev_seq && frame.value() == media_frame(run_.seed(), seq);
    const Ns v1 = now_ns();
    prev_seq = std::max(prev_seq, seq);
    r.frames.fetch_add(1);
    if (!ok) {
      ++tally.check_failures;
      tally.fail(part);
    } else if (part >= 0) {
      tally.latency.record(tl.slot(at), d1 - at);
      tally.complete(part);
    }
    r.last_seq.store(seq);
    tally.ready(d1);
    if (run_.tracing(at, seq)) {
      Trace& trace = run_.trace();
      const char* parent = root ? "ag.frame" : nullptr;
      if (r.direct) {
        trace.span("ag.receive_frame", nullptr, seq, r0, r1);
      } else {
        trace.span("net.conn_recv", nullptr, seq, r0, r1);
        trace.span("viz.decompress_frame", parent, seq, d0, d1);
      }
      trace.span("bench.verify", parent, seq, v0, v1);
      if (root) trace.root("ag.frame", seq, at, d1);
    }
  }
}

void MediaSession::finish(Tally& tally, const Counters& begin,
                          const Counters& end, Report& report) {
  stop_sending_.store(true);
  const auto grace = Deadline::after(kGrace);
  wait_for(grace, [this] { return send_done_.load(); });
  const std::uint64_t last = last_sent_.load();
  wait_for(grace, [&] {
    return std::all_of(receivers_.begin(), receivers_.end(), [&](const auto& r) {
      return r->last_seq.load() >= last;
    });
  });
  fleet_.stop();
  const auto h = bridge_->host_stats();
  bridge_->stop();

  tally.merge(send_tally_);
  std::uint64_t bridged_frames = 0;
  for (std::size_t i = 0; i < kReceivers; ++i) {
    tally.merge(receivers_[i]->tally);
    if (i != 0) bridged_frames += receivers_[i]->frames.load();
  }
  const std::uint64_t expected = window_frames_ * kReceivers;
  if (expected > tally.delivered) tally.failed += expected - tally.delivered;

  if (receivers_[0]->frames.load() != sent_ok_) {
    report.problems.push_back(
        "group member received " + std::to_string(receivers_[0]->frames.load()) +
        " frames, sender sent " + std::to_string(sent_ok_));
  }
  if (h.data_delivered + h.data_dropped != sent_ok_ * kBridged) {
    report.problems.push_back(
        "bridge delivered " + std::to_string(h.data_delivered) + " + dropped " +
        std::to_string(h.data_dropped) + " != sent x bridged clients " +
        std::to_string(sent_ok_ * kBridged));
  }
  if (bridged_frames != h.data_delivered) {
    report.problems.push_back("bridge clients received " +
                              std::to_string(bridged_frames) +
                              " frames, bridge delivered " +
                              std::to_string(h.data_delivered));
  }

  const double d_delivered = counter_delta(begin, end, "bridge.delivered");
  const double d_dropped = counter_delta(begin, end, "bridge.dropped");
  report.layers["ag.bridge_enqueue_to_write_p50_us"] = {
      us(h.stages.enqueue_to_write.p50()), "us"};
  report.layers["ag.bridge_drop_ratio"] = {
      ratio(d_dropped, d_delivered + d_dropped), "ratio"};
  report.layers["ag.bytes_per_frame"] = {
      ratio(counter_delta(begin, end, "sender.bytes"),
            counter_delta(begin, end, "sender.frames")),
      "bytes"};
  report.layers["net.host_queue_high_water"] = {
      static_cast<double>(h.queue_high_water), "frames"};
  report.layers["net.host_wakeups_per_delivery"] = {
      ratio(counter_delta(begin, end, "bridge.wakeups"), d_delivered), "count"};
}

}  // namespace

StartResult start_media(Run& run) { return MediaSession::start(run); }

}  // namespace cs::bench
