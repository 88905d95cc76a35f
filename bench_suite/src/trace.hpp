// In-memory span recorder for the traced run.
//
// A span is one call into a layer, timed from the benchmark's side of the
// API: name, start, end, the span that caused it, and the request id shared
// by every span of one operation. Storage is preallocated per thread, so
// recording never locks or allocates on the hot path; requests are sampled
// deterministically 1-in-N by id, which keeps saturating workloads bounded
// and keeps every span of a sampled request together. Spans are summarised
// and written out (Chrome trace-event JSON) only after the threads are done.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace cs::bench {

class Trace {
 public:
  struct Span {
    const char* name = nullptr;    ///< static string, "<layer>.<call>"
    const char* parent = nullptr;  ///< name of the causing root, or null
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t thread = 0;
    bool root = false;  ///< the operation's end-to-end span
  };

  /// Per-layer view of the recorded spans.
  struct Summary {
    /// Duration of every non-root span, by name, ns.
    std::map<std::string, std::vector<std::uint64_t>> durations;
    /// Self time of every root span (its duration minus the part its
    /// children cover), by root name, ns.
    std::map<std::string, std::vector<std::uint64_t>> self_times;
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;  ///< spans lost to a full buffer
  };

  /// Spans per thread buffer; past it spans are counted as dropped.
  static constexpr std::size_t kSpansPerThread = 1u << 18;

  Trace(bool enabled, std::uint32_t one_in)
      : enabled_(enabled), one_in_(one_in == 0 ? 1 : one_in) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Deterministic 1-in-N sampling by request id.
  bool sampled(std::uint64_t request) const noexcept;

  /// Records a root span (an operation end to end).
  void root(const char* name, std::uint64_t request, std::uint64_t start_ns,
            std::uint64_t end_ns) {
    add({name, nullptr, request, start_ns, end_ns, 0, true});
  }
  /// Records a span of `request`; `parent` names the root it belongs to,
  /// null for a standalone call.
  void span(const char* name, const char* parent, std::uint64_t request,
            std::uint64_t start_ns, std::uint64_t end_ns) {
    add({name, parent, request, start_ns, end_ns, 0, false});
  }

  /// Call once every recording thread has been joined.
  Summary summarize() const;
  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Call once every recording thread has been joined.
  common::Status write_chrome(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };

  void add(Span span);
  Buffer& buffer();

  bool enabled_;
  std::uint32_t one_in_;
  mutable std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace cs::bench
