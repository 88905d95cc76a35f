#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <tuple>

#include "common/rng.hpp"

namespace cs::bench {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    total += end - start;
    cursor = end;
  }
  return total;
}

}  // namespace

bool Trace::sampled(std::uint64_t request) const noexcept {
  return enabled_ && common::splitmix64(request) % one_in_ == 0;
}

Trace::Buffer& Trace::buffer() {
  thread_local const Trace* owner = nullptr;
  thread_local Buffer* mine = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(kSpansPerThread);
    std::scoped_lock lock(mutex_);
    fresh->thread = static_cast<std::uint32_t>(buffers_.size() + 1);
    mine = fresh.get();
    owner = this;
    buffers_.push_back(std::move(fresh));
  }
  return *mine;
}

void Trace::add(Span span) {
  if (!enabled_) return;
  Buffer& b = buffer();
  if (b.spans.size() == kSpansPerThread) {
    ++b.dropped;
    return;
  }
  span.thread = b.thread;
  b.spans.push_back(span);
}

Trace::Summary Trace::summarize() const {
  Summary out;
  std::scoped_lock lock(mutex_);
  // Children keyed by (request, root name) so each root finds its own.
  using Key = std::tuple<std::uint64_t, std::string_view>;
  std::map<Key, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  std::vector<const Span*> roots;
  for (const auto& b : buffers_) {
    out.dropped += b->dropped;
    out.spans += b->spans.size();
    for (const Span& s : b->spans) {
      if (s.root) {
        roots.push_back(&s);
        continue;
      }
      out.durations[s.name].push_back(s.end_ns - s.start_ns);
      if (s.parent != nullptr) {
        children[Key{s.request, s.parent}].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }
  for (const Span* r : roots) {
    std::uint64_t self = r->end_ns - r->start_ns;
    auto it = children.find(Key{r->request, r->name});
    if (it != children.end()) {
      auto intervals = it->second;
      self -= covered(intervals, r->start_ns, r->end_ns);
    }
    out.self_times[r->name].push_back(self);
  }
  return out;
}

common::Status Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return common::Status{common::StatusCode::kUnavailable,
                          "cannot write " + path};
  }
  std::scoped_lock lock(mutex_);
  std::uint64_t origin = ~0ull;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"request\":%llu,\"parent\":\"%s\"}}",
                   first ? "" : ",", s.name, s.root ? "root" : "layer",
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                   static_cast<unsigned long long>(s.request),
                   s.parent != nullptr ? s.parent : "");
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  if (!ok) {
    return common::Status{common::StatusCode::kUnavailable,
                          "short write to " + path};
  }
  return common::Status::ok();
}

}  // namespace cs::bench
