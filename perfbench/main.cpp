// Repository benchmark program: runs one workload for a fixed time and prints
// its metrics as the last line of standard output (one JSON object).
//
//   perfbench --workload osd_plan --seed 3 --seconds 30 [--trace 0|1]
//             [--spans-out spans.jsonl]
//
// Untraced runs report the end-to-end metrics.  A traced run (--trace 1)
// first repeats the untraced loop for half the time, then runs the other
// half with obs recording armed and a span around every layer call the
// benchmark makes, and reports the per-layer metrics plus the tracing
// overhead.  perfbench/run.py builds this program and wraps it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/geometric_graph.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

/// The process pool is pinned so that a run keeps at most three busy
/// threads (client + pool) on a four-core machine.
constexpr std::size_t kPoolThreads = 2;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::size_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.start_us = 1e6 * seconds_between(origin_, Clock::now());
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.op = op_;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_us = 1e6 * seconds_between(origin_, Clock::now());
  stack_.pop_back();
}

double SpanLog::mean_ms(const std::string& name) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end_us - s.start_us;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / 1000.0 / static_cast<double>(n);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"op\":%llu}\n",
                  s.name, s.start_us, s.end_us,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << line;
  }
  return static_cast<bool>(out);
}

double largest_component_fraction(const std::vector<geo::Vec2>& positions,
                                  double rc) {
  if (positions.empty()) return 1.0;
  const graph::GeometricGraph g(positions, rc);
  std::size_t largest = 0;
  for (const auto& comp : g.components()) {
    largest = std::max(largest, comp.size());
  }
  return static_cast<double>(largest) /
         static_cast<double>(positions.size());
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

namespace {

struct LoopStats {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t regions = 0;  ///< Parallel regions opened inside op().
  double rss_mb = 0.0;        ///< Peak RSS once the first min_ops ops ran.
};

/// Runs ops until `seconds` of timed op wall time have passed and at least
/// `min_ops` ops ran.  Only op() is timed; after_op() is not.  Peak RSS is
/// taken when op `min_ops` is done: some library state grows with every op
/// (per-link channel state, for one), so the peak at exit would depend on
/// how many ops the machine managed in the time.
LoopStats run_loop(Workload& w, std::size_t first_op, double seconds,
                   std::size_t min_ops, SpanLog* spans) {
  LoopStats st;
  const obs::Counter& regions =
      obs::registry().counter("parallel.pool.regions");
  for (std::size_t i = 0; st.wall_s < seconds || i < min_ops; ++i) {
    const std::size_t op = first_op + i;
    if (spans != nullptr) spans->set_op(op);
    const std::uint64_t regions0 = regions.value();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      const ScopedSpan span(spans, "op");
      w.op(op, spans);
    }
    const Clock::time_point t1 = Clock::now();
    st.cpu_s += process_cpu_seconds() - cpu0;
    st.regions += regions.value() - regions0;
    const double s = seconds_between(t0, t1);
    st.wall_s += s;
    st.op_ms.push_back(1000.0 * s);
    w.after_op(op, spans);
    if (i + 1 == min_ops) st.rss_mb = peak_rss_mb();
  }
  return st;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload osd_plan|ostd_swarm|"
               "whatif_service --seed N --seconds S [--trace 0|1] "
               "[--spans-out PATH]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = val != "0";
      } else if (key == "--spans-out") {
        o.spans_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int run(const Options& o) {
  SetupFn setup = nullptr;
  if (o.workload == "osd_plan") setup = setup_osd_plan;
  if (o.workload == "ostd_swarm") setup = setup_ostd_swarm;
  if (o.workload == "whatif_service") setup = setup_whatif_service;
  if (setup == nullptr) {
    usage();
    return 2;
  }
  par::set_thread_count(kPoolThreads);
  obs::set_enabled(false);

  // Set-up, several times; the last instance is the one that is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (std::size_t s = 0; s < kSetups; ++s) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = setup(o);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const double untraced_s = o.trace ? 0.5 * o.seconds : o.seconds;
  const LoopStats plain =
      run_loop(*w, 0, untraced_s, o.trace ? 0 : w->fixed_ops(), nullptr);

  SpanLog log;
  LoopStats traced;
  if (o.trace) {
    w->begin_traced();
    obs::registry().reset();
    obs::set_enabled(true);
    traced = run_loop(*w, plain.op_ms.size(), 0.5 * o.seconds, 0, &log);
    obs::set_enabled(false);
  }
  Outcome out = w->finish(o.trace ? &log : nullptr, traced.op_ms.size());

  // An op whose outputs were never checked counts as failed.
  const std::size_t ops = plain.op_ms.size() + traced.op_ms.size();
  const std::size_t failed = out.failed_ops + (ops - out.checked_ops);
  const double ops_per_s = static_cast<double>(plain.op_ms.size()) /
                           plain.wall_s;
  const double tail_q = w->tail_percentile();
  const double tail = percentile(plain.op_ms, tail_q);
  const auto beyond = static_cast<std::size_t>(std::count_if(
      plain.op_ms.begin(), plain.op_ms.end(),
      [&](double v) { return v > tail; }));

  std::map<std::string, double> metrics;
  if (!o.trace) {
    metrics["setup_s"] = percentile(setup_s, 50.0);
    metrics["ops_per_s"] = ops_per_s;
    metrics["op_p50_ms"] = percentile(plain.op_ms, 50.0);
    metrics["op_tail_ms"] = tail;
    metrics["cpu_ms_per_op"] =
        1000.0 * plain.cpu_s / static_cast<double>(plain.op_ms.size());
    metrics["peak_rss_mb"] = plain.rss_mb;
    metrics["ok_ratio"] =
        static_cast<double>(ops - failed) / static_cast<double>(ops);
    metrics["delta_mean"] = out.delta_mean;
    metrics["component_frac_mean"] = out.component_frac_mean;
  } else {
    metrics = out.layers;
    metrics["parallel.busy_ratio"] =
        plain.cpu_s / (plain.wall_s * static_cast<double>(kPoolThreads));
    const double traced_ops_per_s =
        static_cast<double>(traced.op_ms.size()) / traced.wall_s;
    metrics["trace.overhead_ratio"] = traced_ops_per_s / ops_per_s;
    metrics["parallel.regions_per_op"] =
        static_cast<double>(traced.regions) /
        static_cast<double>(traced.op_ms.size());
    if (!o.spans_out.empty() && !log.write(o.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_out.c_str());
      return 1;
    }
  }

  out.info["seed"] = std::to_string(o.seed);
  out.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.info["pool_threads"] = std::to_string(par::thread_count());
  out.info["build_type"] = PERFBENCH_BUILD_TYPE;
  out.info["cps_simd"] = std::to_string(PERFBENCH_SIMD);
  out.info["cps_obs"] = std::to_string(PERFBENCH_OBS);
  out.info["setups"] = std::to_string(setup_s.size());
  out.info["timed_ops"] = std::to_string(plain.op_ms.size());
  out.info["traced_ops"] = std::to_string(traced.op_ms.size());
  char pct[32];
  std::snprintf(pct, sizeof pct, "p%g", tail_q);
  out.info["op_tail_percentile"] = pct;
  out.info["op_tail_ops_beyond"] = std::to_string(beyond);
  {
    std::ostringstream list;
    for (std::size_t s = 0; s < setup_s.size(); ++s) {
      list << (s == 0 ? "" : " ") << json_number(setup_s[s]);
    }
    out.info["setup_s_each"] = list.str();
  }

  std::string line = "{\"workload\":" + json_string(o.workload) +
                     ",\"correct\":" + (failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(ops) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    line += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
    first = false;
  }
  line += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : out.info) {
    line += (first ? "" : ",") + json_string(name) + ":" + json_string(value);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, o)) {
    perfbench::usage();
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
