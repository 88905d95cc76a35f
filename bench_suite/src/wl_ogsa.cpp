// Workload `ogsa`: the OGSI steering service. An ogsa::ServiceHost on TCP
// loopback publishes a SteeringService over a steer::SteeringControl with
// three integer steerables p0..p2; a simulation thread calls apply_pending()
// every 100 us. Three ServiceClients run closed loops: client i alternates
// set-param p_i <unique value> and get-param p_i, which must return the
// value it just set. Latency is the invoke round trip; steer -> visible runs
// from a set-param's start to the apply_pending() that leaves p_i holding
// that value.
#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "net/tcp.hpp"
#include "ogsa/host.hpp"
#include "ogsa/registry.hpp"
#include "ogsa/steering_service.hpp"
#include "steer/control.hpp"
#include "workloads.hpp"

namespace cs::bench {

namespace {

using common::Deadline;
using common::Status;
using common::StatusCode;

constexpr std::size_t kClients = 3;
constexpr Ns kApplyInterval = 100'000;
constexpr const char* kHandle = "ogsi://bench/steering";
constexpr const char* kParams[kClients] = {"p0", "p1", "p2"};
/// Set-param start times kept per client, indexed by step modulo this.
constexpr std::size_t kRing = 1024;
constexpr std::uint64_t kApplyRequest = 1ULL << 62;

/// The value client `i` sets at step `k`: unique across clients and steps.
std::int64_t value_of(std::size_t i, std::uint64_t k) {
  return static_cast<std::int64_t>((i + 1) * 1'000'000'000'000ULL + k);
}
std::uint64_t set_request(std::size_t i, std::uint64_t k) {
  return (static_cast<std::uint64_t>(i) << 48) | k;
}

class OgsaSession final : public Session {
 public:
  static StartResult start(Run& run);

  ~OgsaSession() override {
    fleet_.stop();
    if (host_) host_->stop();
  }

  // The service host exposes no counters; the TCP wire rows are generic.
  Counters counters() override { return {}; }

  void finish(Tally& tally, const Counters& begin, const Counters& end,
              Report& report) override;

  Fleet& fleet() override { return fleet_; }
  Ns send_interval() const override { return 0; }
  std::vector<std::pair<std::string, std::string>> layer_roles()
      const override {
    return {{"api.produce_p50_us", "ogsa.set_param_p50_us"},
            {"api.consume_p50_us", "ogsa.get_param_p50_us"},
            {"svc.gap_p50_us", "steer.apply_gap_p50_us"}};
  }

 private:
  struct Client {
    ogsa::ServiceClient client;
    Tally tally;
    std::atomic<bool> done{false};
    std::int64_t last_set = 0;  ///< written by the thread, read after join
    std::array<std::atomic<Ns>, kRing> set_start{};
  };

  explicit OgsaSession(Run& run) : run_(run), fleet_(run.nproc()) {}

  void sim_loop(const std::stop_token& st);
  void client_loop(const std::stop_token& st, std::size_t index);

  Run& run_;
  net::TcpNetwork tcp_;
  std::array<std::int64_t, kClients> params_{};  ///< the sim's steerables
  std::shared_ptr<steer::SteeringControl> control_;
  std::unique_ptr<ogsa::ServiceHost> host_;
  std::vector<std::unique_ptr<Client>> clients_;
  Tally sim_tally_;
  Ns t0_ = 0;
  std::atomic<bool> stop_clients_{false};
  std::atomic<bool> stop_sim_{false};
  std::atomic<bool> sim_done_{false};
  Fleet fleet_;  // last: its threads are joined before the rest dies
};

StartResult OgsaSession::start(Run& run) {
  std::unique_ptr<OgsaSession> s{new OgsaSession(run)};
  s->control_ = std::make_shared<steer::SteeringControl>();
  for (std::size_t i = 0; i < kClients; ++i) {
    s->control_->register_steerable_int(kParams[i], &s->params_[i], 0,
                                        std::numeric_limits<std::int64_t>::max());
  }
  auto registry = std::make_shared<ogsa::Registry>();
  if (Status st = registry->publish(std::make_shared<ogsa::SteeringService>(
          kHandle, "application", s->control_));
      !st.is_ok()) {
    return st;
  }
  auto host = ogsa::ServiceHost::start(s->tcp_, registry, {"0"});
  if (!host.is_ok()) return host.status();
  s->host_ = std::move(host).value();
  for (std::size_t i = 0; i < kClients; ++i) {
    if (Status st = s->fleet_.add_connection(); !st.is_ok()) return st;
    auto client = ogsa::ServiceClient::connect(
        s->tcp_, s->host_->address(), Deadline::after(std::chrono::seconds(5)));
    if (!client.is_ok()) return client.status();
    s->clients_.push_back(std::make_unique<Client>());
    s->clients_.back()->client = std::move(client).value();
  }
  s->watch(s->sim_tally_);
  for (const auto& c : s->clients_) s->watch(c->tally);
  s->t0_ = now_ns();
  OgsaSession* self = s.get();
  if (Status st = s->fleet_.spawn(
          [self](const std::stop_token& t) { self->sim_loop(t); });
      !st.is_ok()) {
    return st;
  }
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

void OgsaSession::sim_loop(const std::stop_token& st) {
  const Timeline& tl = run_.timeline();
  Tally& tally = sim_tally_;
  Ns next = t0_;
  std::uint64_t iteration = 0;
  while (!st.stop_requested()) {
    // One last pass after the clients stopped, so every set is applied.
    const bool last = stop_sim_.load();
    tally.paced(pace_until(next, kApplyInterval));
    const Ns a0 = now_ns();
    if (tl.in_window(next)) tally.lag.record(a0 - next);
    const auto changed = control_->apply_pending();
    const Ns a1 = now_ns();
    for (const std::string& name : changed) {
      const auto i = static_cast<std::size_t>(name[1] - '0');
      const auto k =
          static_cast<std::uint64_t>(params_[i] - value_of(i, 0));
      const Ns set_at =
          clients_[i]->set_start[k % kRing].load(std::memory_order_acquire);
      if (tl.in_window(set_at)) tally.visible.record(a1 - set_at);
      if (run_.tracing(set_at, set_request(i, k))) {
        run_.trace().root("steer.apply", set_request(i, k), set_at, a1);
      }
    }
    tally.ready(a1);
    ++iteration;
    if (run_.tracing(next, kApplyRequest | iteration)) {
      run_.trace().span("steer.apply_pending", nullptr,
                        kApplyRequest | iteration, a0, a1);
    }
    if (last) break;
    // A late pass is not repeated: the next one is due a period later.
    next = std::max(next + kApplyInterval, a1);
  }
  sim_done_.store(true);
}

void OgsaSession::client_loop(const std::stop_token& st, std::size_t index) {
  Client& c = *clients_[index];
  Tally& tally = c.tally;
  const Timeline& tl = run_.timeline();
  const std::string name = kParams[index];
  const auto rpc_deadline = [] {
    return Deadline::after(std::chrono::seconds(1));
  };
  std::uint64_t k = 0;
  while (!st.stop_requested() && !stop_clients_.load()) {
    const std::int64_t value = value_of(index, ++k);
    const Ns s0 = now_ns();
    int part = tally.attempt(tl, s0);
    c.set_start[k % kRing].store(s0, std::memory_order_release);
    auto set = c.client.invoke(kHandle, "set-param",
                               {name, std::to_string(value)}, rpc_deadline());
    const Ns s1 = now_ns();
    if (!set.is_ok() || set.value() != "ok") {
      tally.fail(part);
      if (set.status().code() == StatusCode::kClosed) break;
      continue;
    }
    c.last_set = value;
    tally.latency.record(tl.slot(s0), s1 - s0);
    tally.complete(part);
    if (run_.tracing(s0, set_request(index, k))) {
      run_.trace().span("ogsa.set_param", "steer.apply",
                        set_request(index, k), s0, s1);
    }

    const Ns g0 = now_ns();
    part = tally.attempt(tl, g0);
    auto got = c.client.invoke(kHandle, "get-param", {name}, rpc_deadline());
    const Ns g1 = now_ns();
    if (!got.is_ok()) {
      tally.fail(part);
      if (got.status().code() == StatusCode::kClosed) break;
      continue;
    }
    const bool ok = got.value() == std::to_string(value);
    const Ns g2 = now_ns();
    if (!ok) {
      ++tally.check_failures;
      tally.fail(part);
      continue;
    }
    tally.latency.record(tl.slot(g0), g1 - g0);
    tally.complete(part);
    tally.ready(g1);
    if (run_.tracing(g0, set_request(index, k))) {
      run_.trace().span("ogsa.get_param", nullptr, set_request(index, k), g0,
                        g1);
      run_.trace().span("bench.verify", nullptr, set_request(index, k), g1, g2);
    }
  }
  c.done.store(true);
}

void OgsaSession::finish(Tally& tally, const Counters&, const Counters&,
                         Report& report) {
  stop_clients_.store(true);
  const auto grace = Deadline::after(kGrace);
  wait_for(grace, [this] {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const auto& c) { return c->done.load(); });
  });
  stop_sim_.store(true);
  wait_for(grace, [this] { return sim_done_.load(); });
  fleet_.stop();

  tally.merge(sim_tally_);
  for (std::size_t i = 0; i < kClients; ++i) {
    const Client& c = *clients_[i];
    tally.merge(c.tally);
    // After the final apply the simulation holds every client's last set.
    auto held = control_->get_param(kParams[i]);
    if (params_[i] != c.last_set || !held.is_ok() ||
        held.value() != std::to_string(c.last_set)) {
      report.problems.push_back(std::string("simulation holds ") + kParams[i] +
                                " = " + std::to_string(params_[i]) +
                                ", client set " + std::to_string(c.last_set));
    }
  }
  host_->stop();
  report.extra["steer_visible_p50_us"] = {us(tally.visible.p50()), "us"};
  report.extra["steer_visible_p99_us"] = {us(tally.visible.p99()), "us"};
}

}  // namespace

StartResult start_ogsa(Run& run) { return OgsaSession::start(run); }

}  // namespace cs::bench
