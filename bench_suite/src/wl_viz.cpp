// Workload `viz`: viz::RemoteRenderServer (default options: 320x240, 5 ms
// frame period) on TCP loopback, three clients sharing one camera. Each
// client sets a view at 60 views/s, open loop, the three schedules
// staggered by a third of the period. A view is the default camera orbited
// by a seeded offset (up to 0.3 rad of yaw, 0.15 of pitch): the views differ
// from frame to frame, so delta compression has work, but every seed draws
// them from the same range and so costs the same. (A random walk would
// wander to top-down views on some seeds and side views on others.)
//
// Each view is due at a random point in the first half of its 1/60 s slot,
// so the views sample every phase of the server's 5 ms frame loop instead
// of locking to one, which would make the latency depend on the run's
// start phase.
//
// A view's latency runs from its due time to the first frame the client
// receives after an ack newer than the view's send: the server acks a view
// before the frame it provokes, on the same queue. At the end every client
// must hold the same final frame, and it must equal a local render of the
// last camera the server applied.
#include <algorithm>
#include <deque>
#include <vector>

#include "content.hpp"
#include "net/tcp.hpp"
#include "viz/remote.hpp"
#include "viz/render.hpp"
#include "workloads.hpp"

namespace cs::bench {

namespace {

using common::Deadline;
using common::Status;
using common::StatusCode;

constexpr std::size_t kClients = 3;
constexpr Ns kViewInterval = kNsPerSec / 60;
constexpr Ns kQuietNs = 200'000'000;
/// Request id of view `k` of client `i`.
constexpr std::uint64_t view_request(std::size_t i, std::uint64_t k) {
  return (static_cast<std::uint64_t>(i) << 48) | k;
}

class VizSession final : public Session {
 public:
  static StartResult start(Run& run);

  ~VizSession() override {
    fleet_.stop();
    if (server_) server_->stop();
  }

  Counters counters() override {
    const auto s = server_->stats();
    return {{"viz.rendered", static_cast<double>(s.frames_rendered)},
            {"viz.sent", static_cast<double>(s.frames_sent)},
            {"viz.bytes", static_cast<double>(s.bytes_sent)},
            {"viz.iterations", static_cast<double>(s.render_loop_iterations)},
            {"fanout.delivered", static_cast<double>(s.fanout.data_delivered)},
            {"fanout.dropped", static_cast<double>(s.fanout.data_dropped)}};
  }

  void finish(Tally& tally, const Counters& begin, const Counters& end,
              Report& report) override;

  Fleet& fleet() override { return fleet_; }
  Ns send_interval() const override { return kViewInterval; }
  std::vector<std::pair<std::string, std::string>> layer_roles()
      const override {
    return {{"api.produce_p50_us", "viz.set_view_p50_us"},
            {"api.consume_p50_us", "viz.await_frame_p50_us"},
            {"svc.gap_p50_us", "viz.view_gap_p50_us"}};
  }

 private:
  struct Client {
    viz::RemoteRenderClient client;
    Tally tally;
    std::atomic<std::uint64_t> frames{0};
    std::atomic<Ns> last_frame_ns{0};
    std::uint64_t views_sent = 0;  ///< written by the thread, read after join
    viz::Camera last_view;         ///< likewise
  };

  explicit VizSession(Run& run) : run_(run), fleet_(run.nproc()) {}

  void client_loop(const std::stop_token& st, std::size_t index);

  Run& run_;
  net::TcpNetwork tcp_;
  std::shared_ptr<viz::SceneStore> scene_;
  std::unique_ptr<viz::RemoteRenderServer> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  Ns t0_ = 0;
  std::atomic<bool> stop_views_{false};
  Fleet fleet_;  // last: its threads are joined before the rest dies
};

StartResult VizSession::start(Run& run) {
  std::unique_ptr<VizSession> s{new VizSession(run)};
  s->scene_ = make_scene(run.seed());
  viz::RemoteRenderServer::Options options;
  options.address = "0";
  auto server = viz::RemoteRenderServer::start(s->tcp_, s->scene_, options);
  if (!server.is_ok()) return server.status();
  s->server_ = std::move(server).value();
  for (std::size_t i = 0; i < kClients; ++i) {
    if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
    auto client = viz::RemoteRenderClient::connect(
        s->tcp_, s->server_->address(), Deadline::after(std::chrono::seconds(5)));
    if (!client.is_ok()) return client.status();
    s->clients_.push_back(std::make_unique<Client>());
    s->clients_.back()->client = std::move(client).value();
  }
  for (const auto& c : s->clients_) s->watch(c->tally);
  s->t0_ = now_ns();
  VizSession* self = s.get();
  for (std::size_t i = 0; i < kClients; ++i) {
    if (Status st = s->fleet_.spawn([self, i](const std::stop_token& t) {
          self->client_loop(t, i);
        });
        !st.is_ok()) {
      return st;
    }
  }
  return std::unique_ptr<Session>(std::move(s));
}

void VizSession::client_loop(const std::stop_token& st, std::size_t index) {
  Client& c = *clients_[index];
  Tally& tally = c.tally;
  const Timeline& tl = run_.timeline();
  common::Rng rng = stream(run_.seed(), index + 1);
  // The phase jitter is part of the workload's schedule, the same for every
  // seed: peak memory follows rare coincidences of the three clients' views,
  // and a seeded schedule reads as a different rss_peak_mib per seed.
  common::Rng jitter = stream(0, kClients + index + 1);
  const auto jittered = [&](Ns slot) {
    return slot + static_cast<Ns>(jitter.uniform(0.0, kViewInterval / 2.0));
  };
  const viz::Camera home;
  Ns slot = t0_ + kViewInterval + kViewInterval * index / kClients;
  Ns next_view = jittered(slot);
  struct Pending {
    std::uint64_t k;
    Ns due;
    std::uint64_t ack_before;  ///< the client's last ack when it was sent
  };
  std::deque<Pending> pending;
  while (!st.stop_requested()) {
    if (!stop_views_.load() && now_ns() >= next_view) {
      const Ns due = next_view;
      slot += kViewInterval;
      next_view = jittered(slot);
      const std::uint64_t k = ++c.views_sent;
      const Ns start = now_ns();
      const int part = tally.attempt(tl, due);
      if (part >= 0) tally.lag.record(start - due);
      viz::Camera camera = home;
      camera.orbit(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15));
      const std::uint64_t ack_before = c.client.last_view_ack();
      const Status s =
          c.client.set_view(camera, Deadline::after(std::chrono::seconds(1)));
      const Ns sent = now_ns();
      if (!s.is_ok()) {
        tally.fail(part);
        if (s.code() == StatusCode::kClosed) break;
      } else {
        c.last_view = camera;
        pending.push_back({k, due, ack_before});
        if (run_.tracing(due, view_request(index, k))) {
          run_.trace().span("bench.gen_lag", "viz.view", view_request(index, k),
                            due, start);
          run_.trace().span("viz.set_view", "viz.view", view_request(index, k),
                            start, sent);
        }
      }
    }
    // The transport polls with millisecond granularity: the last
    // millisecond before a view is due is waited out here, not in a poll.
    const Ns a0 = now_ns();
    if (!stop_views_.load() && next_view < a0 + ns_from_ms(1)) {
      tally.paced(pace_until(next_view, kViewInterval));
      continue;
    }
    const Ns wake = stop_views_.load() ? a0 + kPollSliceNs
                                       : std::min(next_view, a0 + kPollSliceNs);
    auto frame = c.client.await_frame(deadline_at(wake));
    const Ns a1 = now_ns();
    if (tl.part(a0) == tl.layer_part()) ++tally.calls;
    if (!frame.is_ok()) {
      if (frame.status().code() == StatusCode::kClosed) break;
      continue;
    }
    c.frames.fetch_add(1);
    c.last_frame_ns.store(a1);
    tally.ready(a1);
    const int part = tally.attempt(tl, a1);
    const Ns v0 = now_ns();
    const bool ok = frame.value().width() == 320 &&
                    frame.value().height() == 240 &&
                    frame.value().pixels().size() == 320u * 240u;
    const Ns v1 = now_ns();
    if (!ok) {
      ++tally.check_failures;
      tally.fail(part);
    } else {
      tally.complete(part);
    }
    if (pending.empty() ||
        c.client.last_view_ack() <= pending.back().ack_before) {
      continue;
    }
    for (const Pending& p : pending) {
      const int view_part = tl.part(p.due);
      if (view_part < 0) continue;
      tally.latency.record(tl.slot(p.due), a1 - p.due);
      if (run_.tracing(p.due, view_request(index, p.k))) {
        run_.trace().span("viz.await_frame", nullptr, view_request(index, p.k),
                          a0, a1);
        run_.trace().span("bench.verify", "viz.view", view_request(index, p.k),
                          v0, v1);
        run_.trace().root("viz.view", view_request(index, p.k), p.due, a1);
      }
    }
    pending.clear();
  }
  // A view that never produced a frame failed.
  for (const Pending& p : pending) tally.fail(tl.part(p.due));
}

void VizSession::finish(Tally& tally, const Counters& begin,
                        const Counters& end, Report& report) {
  stop_views_.store(true);
  // Quiet period: every client has gone kQuietNs without a frame.
  const Ns stopped = now_ns();
  wait_for(Deadline::after(kGrace + std::chrono::milliseconds(500)), [&] {
    const Ns now = now_ns();
    return now - stopped >= kQuietNs &&
           std::all_of(clients_.begin(), clients_.end(), [&](const auto& c) {
             return now - c->last_frame_ns.load() >= kQuietNs;
           });
  });
  fleet_.stop();
  const auto s = server_->stats();
  server_->stop();

  std::uint64_t frames = 0;
  std::uint64_t views = 0;
  const Client* last_applied = nullptr;
  for (const auto& c : clients_) {
    tally.merge(c->tally);
    frames += c->frames.load();
    views += c->views_sent;
    if (last_applied == nullptr ||
        c->client.last_view_ack() > last_applied->client.last_view_ack()) {
      last_applied = c.get();
    }
  }
  // The shared camera: every participant holds the same final frame, and it
  // is the render of the view the server applied last (the highest ack).
  auto applied = viz::Camera::parse(last_applied->last_view.serialize());
  viz::Renderer renderer(320, 240);
  if (applied.is_ok()) scene_->render(renderer, applied.value());
  for (const auto& c : clients_) {
    if (!applied.is_ok() || !(c->client.current_frame() == renderer.frame())) {
      ++tally.check_failures;
    }
  }
  if (s.frames_sent != frames) {
    report.problems.push_back("server sent " + std::to_string(s.frames_sent) +
                              " frames, clients received " +
                              std::to_string(frames));
  }
  if (s.view_events != views) {
    report.problems.push_back("server applied " + std::to_string(s.view_events) +
                              " views, clients sent " + std::to_string(views));
  }

  const double secs = counter_delta(begin, end, "wall_s");
  const double rendered = counter_delta(begin, end, "viz.rendered");
  const double sent = counter_delta(begin, end, "viz.sent");
  const double delivered = counter_delta(begin, end, "fanout.delivered");
  const double dropped = counter_delta(begin, end, "fanout.dropped");
  std::size_t high_water = 0;
  for (const auto& shard : s.fanout.shards) {
    high_water = std::max(high_water, shard.queue_high_water);
  }
  report.layers["viz.frames_rendered_per_s"] = {ratio(rendered, secs), "1/s"};
  report.layers["viz.bytes_per_frame"] = {
      ratio(counter_delta(begin, end, "viz.bytes"), sent), "bytes"};
  report.layers["viz.loop_iterations_per_frame"] = {
      ratio(counter_delta(begin, end, "viz.iterations"), rendered), "count"};
  report.layers["common.fanout_enqueue_to_write_p50_us"] = {
      us(s.fanout.stages.enqueue_to_write.p50()), "us"};
  report.layers["common.fanout_drop_ratio"] = {
      ratio(dropped, delivered + dropped), "ratio"};
  report.layers["common.fanout_queue_high_water"] = {
      static_cast<double>(high_water), "frames"};
}

}  // namespace

StartResult start_viz(Run& run) { return VizSession::start(run); }

}  // namespace cs::bench
