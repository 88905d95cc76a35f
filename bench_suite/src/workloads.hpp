// The five workloads. Each start function brings up one session — the
// service on TCP loopback with its default Options, its clients, and the
// generator threads — and returns once every participant is connected;
// Session::await_ready() then waits for the first frame or reply.
#pragma once

#include <memory>

#include "common/status.hpp"
#include "harness.hpp"

namespace cs::bench {

using StartResult = common::Result<std::unique_ptr<Session>>;

/// visit::Multiplexer, 1 sim + 3 viewers, 1 KiB samples at 2000/s with a
/// parameter request per step; the master steers at 100/s.
StartResult start_steer(Run& run);
/// The same topology with 64 B samples sent back-to-back, no steering.
StartResult start_flood(Run& run);
/// viz::RemoteRenderServer with 3 clients moving the shared camera, 60
/// views/s each.
StartResult start_viz(Run& run);
/// ag::MediaStream at 1000 frames/s into a multicast group, received
/// directly by one member and over TCP through ag::UnicastBridge by two.
StartResult start_media(Run& run);
/// ogsa::ServiceHost publishing a SteeringService over steer::
/// SteeringControl; 3 closed-loop clients alternate set-param/get-param.
StartResult start_ogsa(Run& run);

}  // namespace cs::bench
