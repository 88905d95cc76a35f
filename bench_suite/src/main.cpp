// cs_bench: runs one workload of the repository benchmark and prints its
// metrics. The last line of stdout is the result object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics, or with --trace=1 the per-layer ones. A
// human summary goes to stderr; with --out-dir the full report (context,
// workload rows, module-named layer metrics) and, for traced runs, a Chrome
// trace-event file are written there.
//
//   cs_bench --workload=steer|flood|viz|media|ogsa [--seed=1] [--seconds=10]
//            [--trace=0|1] [--out-dir=DIR] [--git-sha=SHA]
//
// Exit status: 0 on a completed run, 1 when the service's own counters do not
// reconcile with what the clients observed, 2 on bad arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace cs::bench {
namespace {

struct Workload {
  const char* name;
  StartResult (*start)(Run&);
  /// Traced runs keep 1 in this many requests (by id) as spans.
  std::uint32_t trace_one_in;
};

constexpr Workload kWorkloads[] = {
    {"steer", start_steer, 4},  {"flood", start_flood, 256},
    {"viz", start_viz, 1},      {"media", start_media, 4},
    {"ogsa", start_ogsa, 64},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

std::string result_line(const Report& r, bool trace) {
  const bool correct = r.check_failures == 0 && r.problems.empty();
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(trace ? r.per_layer : r.end_to_end) +
         "}";
}

std::string report_json(const Report& r, const Settings& s) {
  std::string context = "{";
  for (const auto& [k, v] : r.context) {
    if (context.size() > 1) context += ", ";
    context += quoted(k) + ": " + quoted(v);
  }
  context += "}";
  std::string problems = "[";
  for (const auto& p : r.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += quoted(p);
  }
  problems += "]";
  return "{\"workload\": " + quoted(s.workload) +
         ", \"seed\": " + std::to_string(s.seed) +
         ", \"seconds\": " + number(s.seconds) +
         ", \"trace\": " + (s.trace ? "true" : "false") +
         ", \"valid\": " + (r.valid ? "true" : "false") +
         ", \"validity\": " + quoted(r.validity) +
         ", \"check_failures\": " + std::to_string(r.check_failures) +
         ", \"problems\": " + problems + ",\n \"context\": " + context +
         ",\n \"result\": " + result_line(r, s.trace) +
         ",\n \"end_to_end\": " + metrics_json(r.end_to_end) +
         ",\n \"extra\": " + metrics_json(r.extra) +
         ",\n \"per_layer\": " + metrics_json(r.per_layer) +
         ",\n \"layers\": " + metrics_json(r.layers) + "}\n";
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "cs_bench: cannot write %s\n", path.c_str());
  }
}

void print_summary(const Report& r, const Settings& s) {
  std::fprintf(stderr, "cs_bench %s seed=%llu seconds=%g trace=%d\n",
               s.workload.c_str(), static_cast<unsigned long long>(s.seed),
               s.seconds, s.trace ? 1 : 0);
  for (const auto& [k, v] : r.context) {
    std::fprintf(stderr, "  context %-34s %s\n", k.c_str(), v.c_str());
  }
  const auto rows = [](const char* kind, const Metrics& m) {
    for (const auto& [name, metric] : m) {
      std::fprintf(stderr, "  %-7s %-34s %14.3f %s\n", kind, name.c_str(),
                   metric.value, metric.unit.c_str());
    }
  };
  rows("e2e", r.end_to_end);
  rows("extra", r.extra);
  rows("layer", r.layers);
  std::fprintf(stderr, "  ops attempted=%llu failed=%llu check_failures=%llu%s\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.check_failures),
               r.valid ? "" : "  [INVALID]");
  if (!r.valid) std::fprintf(stderr, "  invalid: %s\n", r.validity.c_str());
  for (const auto& p : r.problems) {
    std::fprintf(stderr, "  RECONCILIATION FAILED: %s\n", p.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "cs_bench: %s\nusage: cs_bench --workload=steer|flood|viz|media|"
               "ogsa [--seed=N] [--seconds=S] [--trace=0|1] [--out-dir=DIR] "
               "[--git-sha=SHA]\n",
               why);
  return 2;
}

int run_main(int argc, char** argv) {
  Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      return usage("arguments take the form --name=value");
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value{arg.substr(eq + 1)};
    char* end = nullptr;
    if (key == "workload") {
      settings.workload = value;
    } else if (key == "seed") {
      settings.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (key == "seconds") {
      settings.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(settings.seconds > 0) ||
          settings.seconds > 600) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      settings.trace = value == "1";
    } else if (key == "out-dir") {
      settings.out_dir = value;
    } else if (key == "git-sha") {
      settings.git_sha = value;
    } else {
      return usage("unknown argument");
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (settings.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown --workload");

  Run run(settings, workload->trace_one_in);
  std::fprintf(stderr, "cs_bench: generator limit %zu threads, %zu connections"
                       " (nproc)\n", run.nproc(), run.nproc());
  Report report = run_cycles(run, workload->start);
  report.context["build_type"] = CS_BENCH_BUILD_TYPE;
  report.context["git_sha"] = settings.git_sha;
  report.context["generator_limit"] = std::to_string(run.nproc());
  report.context["trace_one_in"] = std::to_string(workload->trace_one_in);
  print_summary(report, settings);

  if (!settings.out_dir.empty()) {
    const std::string stem = settings.out_dir + "/" + settings.workload +
                             "-seed" + std::to_string(settings.seed) +
                             (settings.trace ? "-trace" : "");
    write_file(stem + ".json", report_json(report, settings));
    if (settings.trace) {
      if (auto s = run.trace().write_chrome(stem + "-chrome.json"); !s.is_ok()) {
        std::fprintf(stderr, "cs_bench: %s\n", s.to_string().c_str());
      }
    }
  }
  if (!report.problems.empty()) return 1;
  std::printf("%s\n", result_line(report, settings.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace cs::bench

int main(int argc, char** argv) {
  try {
    return cs::bench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs_bench: %s\n", e.what());
    return 1;
  }
}
