// Shared machinery of the repository benchmark: workload interface, op
// timing, process CPU and memory probes, and the in-memory span log of the
// traced run.
//
// A workload is constructed by its set-up function (timed as set-up, warm-up
// ops included), then driven op by op: op() is the timed region, after_op()
// runs right after it outside the timed region (bookkeeping, cheap checks
// and, in the traced run, the per-layer probes), and finish() runs the
// deferred output checks once the loop has stopped.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geometry/vec2.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {}
namespace cps::field {}
namespace cps::graph {}
namespace cps::net {}
namespace cps::obs {}
namespace cps::par {}
namespace cps::trace {}

namespace perfbench {

namespace core = cps::core;
namespace field = cps::field;
namespace geo = cps::geo;
namespace graph = cps::graph;
namespace net = cps::net;
namespace num = cps::num;
namespace obs = cps::obs;
namespace par = cps::par;
namespace trace = cps::trace;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();

/// Peak resident set of the process, MiB.
double peak_rss_mb();

/// Command-line options; every input of a run derives from `seed`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< Traced run: where the span log goes.
};

/// One recorded span: a timed call into a layer, made by the benchmark.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< Index of the enclosing span, -1 for a root.
  std::uint64_t op = 0;      ///< Op the span belongs to.
};

/// Spans of the traced run, kept in memory and written out at exit.  Only
/// the client thread records, so no locking.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void set_op(std::uint64_t op) noexcept { op_ = op; }
  std::size_t open(const char* name);
  void close(std::size_t index);

  /// Mean duration (ms) of the spans called `name`, 0 if there are none.
  double mean_ms(const std::string& name) const;

  /// JSON lines, one span per line.  Returns false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null log makes it a no-op, which is what untraced runs pass.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// What a workload reports once its loop has stopped.
struct Outcome {
  std::size_t checked_ops = 0;   ///< Ops whose outputs were checked.
  std::size_t failed_ops = 0;    ///< Ops with at least one failed check.
  double delta_mean = 0.0;
  double component_frac_mean = 0.0;
  std::map<std::string, double> layers;  ///< Per-layer metrics (traced run).
  std::map<std::string, std::string> info;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Percentile (0..100) reported as op_tail_ms.
  virtual double tail_percentile() const = 0;
  /// Ops always run, however long they take, so that delta_mean and
  /// component_frac_mean cover the same ops on every run of a seed.
  virtual std::size_t fixed_ops() const = 0;

  /// The timed op.
  virtual void op(std::size_t i, SpanLog* spans) = 0;
  /// Untimed work after op i.
  virtual void after_op(std::size_t i, SpanLog* spans) = 0;
  /// Called once before the traced ops start.
  virtual void begin_traced() {}
  /// Deferred checks and the report.  `traced_ops` ops ran under the span
  /// log; the per-layer metrics are taken over those.
  virtual Outcome finish(const SpanLog* spans, std::size_t traced_ops) = 0;
};

using SetupFn = std::unique_ptr<Workload> (*)(const Options&);

std::unique_ptr<Workload> setup_osd_plan(const Options& options);
std::unique_ptr<Workload> setup_ostd_swarm(const Options& options);
std::unique_ptr<Workload> setup_whatif_service(const Options& options);

// --- Small helpers shared by the workloads --------------------------------

inline const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

/// Largest connected component of the Rc-disk graph over `positions`, as a
/// fraction of the nodes (1 for an empty deployment).
double largest_component_fraction(const std::vector<geo::Vec2>& positions,
                                  double rc);

/// Nearest-rank percentile (q in 0..100) of unsorted samples.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
