// Shared pieces of the fairflow benchmark: clock, sample statistics, the
// in-memory span log, the per-run outcome, and the fairflowd child process.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Return once now_s() >= deadline.
void sleep_until_s(double deadline);

/// Spans the benchmark records around calls into fairflow's public
/// functions. Kept in memory while the run measures and written out once it
/// ends. A span has a name, start, end, the span that caused it, and an id
/// shared by every span of one campaign, record or probe input.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  int64_t parent = -1;  // index into the log, -1 for a root
  double start_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Open a span; returns its index, or -1 when tracing is off.
  int64_t open(const char* name, uint64_t id, int64_t parent = -1);
  void close(int64_t index);
  /// Record a span whose bounds were timed elsewhere.
  int64_t add(const char* name, uint64_t id, int64_t parent, double start_s,
              double end_s);

  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  size_t size() const;

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; does nothing when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t id = 0, int64_t parent = -1)
      : index_(SpanLog::instance().open(name, id, parent)) {}
  ~ScopedSpan() { SpanLog::instance().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const noexcept { return index_; }

 private:
  int64_t index_;
};

/// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload pass produced: operation counts, correctness problems
/// and metrics by name.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// The value of metric `name`; throws when the run never set it.
  double get(const std::string& name) const;
  void problem(std::string text);
};

/// Settings every workload sees.
struct Context {
  uint64_t seed = 1;
  double seconds = 10;
  std::string daemon_exe;  // fairflowd binary
  std::string workdir;     // working directory inside the checkout
  size_t nproc = 1;
};

/// A fairflowd child process serving a Unix socket under `dir`. The
/// destructor asks it to drain (`shutdown`), waits for it to exit, and
/// kills it only if it does not. The child is killed when the thread that
/// created it exits (PR_SET_PDEATHSIG), so that thread must outlive it.
class DaemonProcess {
 public:
  DaemonProcess(const Context& context, const std::string& dir, size_t quota);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const noexcept { return socket_; }
  /// Stop the daemon now; returns its exit status (-1 if it was killed).
  int stop();

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// Measured host properties stamped on every result.
ff::Json host_stamp(const Context& context);

/// Median microseconds of write(4 KiB) + fsync on a file under `dir`.
double measure_fsync_us(const std::string& dir, int samples);
/// Median microseconds of tmp write + fsync + rename under `dir`.
double measure_tmp_fsync_rename_us(const std::string& dir, int samples);

}  // namespace perfbench
