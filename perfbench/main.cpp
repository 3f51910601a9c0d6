// The fairflow benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --daemon <fairflowd> --workdir <dir> [--spans <file>]
//
// Prints the host stamp and every metric of the workload by name and unit,
// then, as the last line, one JSON object: correct, attempted, failed and
// the metrics BENCHMARK.json lists (end-to-end with --trace 0, per-layer
// with --trace 1). Exits 1 when any correctness check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The workloads --workload accepts. daemon_small runs only as a short
/// traced pass of the others (see METRICS.md).
const std::vector<std::string> kWorkloads = {"daemon_large", "stream_fanout", "irf_census"};

/// Which of a workload's own metrics its result line reports as
/// throughput_per_s. See METRICS.md.
const char* throughput_metric(const std::string& workload) {
  if (workload == "daemon_large") return "large_runs_per_s";
  if (workload == "stream_fanout") return "sustainable_records_per_s";
  return "irf_targets_per_s";
}

using Runner = void (*)(const Context&, double, Outcome&);

Runner runner_for(const std::string& workload) {
  if (workload == "daemon_small") return run_daemon_small;
  if (workload == "daemon_large") return run_daemon_large;
  if (workload == "stream_fanout") return run_stream_fanout;
  return run_irf_census;
}

/// Set-up times (s) of repeats that fill at least `window_s` seconds, and
/// at least `min_repeats` of them. One set-up takes milliseconds; the
/// median over a window of seconds rides out a short slow spell of a
/// shared host.
std::vector<double> measure_setup_s(const Context& context, const std::string& workload,
                                    double window_s, size_t min_repeats) {
  std::vector<double> times;
  const double until = now_s() + window_s;
  while (times.size() < min_repeats || now_s() < until) {
    // Each repeat on a fresh thread, so one run's median spans the cores the
    // scheduler hands out instead of whichever one the main thread sits on.
    std::exception_ptr failure;
    std::thread([&] {
      try {
        const double t0 = now_s();
        std::shared_ptr<void> ready;
        if (workload == "daemon_large") {
          ready = setup_daemon(context);
        } else if (workload == "stream_fanout") {
          ready = setup_stream(context);
        } else {
          ready = setup_irf(context);
        }
        times.push_back(now_s() - t0);
      } catch (...) {
        failure = std::current_exception();
      }
    }).join();
    if (failure) std::rethrow_exception(failure);
  }
  return times;
}

/// Fold one pass into the run's outcome: counts and problems add up; a
/// metric keeps the value of the first pass that set it, except counts,
/// which add.
void merge(Outcome& into, const Outcome& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.problems.insert(into.problems.end(), from.problems.begin(), from.problems.end());
  for (const auto& [name, metric] : from.metrics) {
    auto it = into.metrics.find(name);
    if (it == into.metrics.end()) {
      into.metrics[name] = metric;
    } else if (metric.unit == "count" || metric.unit == "bytes") {
      it->second.value += metric.value;
    }
  }
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in BENCHMARK.json order.
const std::vector<LayerMetric> kLayerMetrics = {
    {"service.ping_rtt_us", "us"},
    {"service.dispatch_submit_ms", "ms"},
    {"service.wire_overhead_ms", "ms"},
    {"service.status_inproc_us", "us"},
    {"service.requests", "count"},
    {"service.error_replies", "count"},
    {"service.unaccounted_ms", "ms"},
    {"lint.preflight_ms", "ms"},
    {"cheetah.manifest_parse_ms", "ms"},
    {"cheetah.sweep_walk_ns_per_run", "ns"},
    {"cheetah.endpoint_create_dense_ms", "ms"},
    {"cheetah.endpoint_create_sparse_ms", "ms"},
    {"cheetah.endpoint_finalize_dense_ms", "ms"},
    {"cheetah.endpoint_finalize_sparse_ms", "ms"},
    {"savanna.journal_create_inline_ms", "ms"},
    {"savanna.journal_create_summary_ms", "ms"},
    {"savanna.journal_append_gc1_us", "us"},
    {"savanna.journal_append_large_us", "us"},
    {"savanna.slice_ms", "ms"},
    {"savanna.slice_nojournal_ms", "ms"},
    {"savanna.slice_large_ms", "ms"},
    {"savanna.attempt_scan_ms", "ms"},
    {"savanna.allocations", "count"},
    {"savanna.journal_bytes", "bytes"},
    {"util.fsync_us", "us"},
    {"util.write_atomic_us", "us"},
    {"util.json_parse_us", "us"},
    {"util.json_dump_us", "us"},
    {"stream.publish_p50_us", "us"},
    {"stream.publish_p99_us", "us"},
    {"stream.sync_records_per_s", "1/s"},
    {"stream.channel_ops_per_s", "1/s"},
    {"stream.marshal_encode_ns_per_record", "ns"},
    {"stream.marshal_decode_ns_per_record", "ns"},
    {"stream.queue_depth_max", "count"},
    {"stream.delivered", "count"},
    {"stream.dropped", "count"},
    {"stream.generator_lag_ms", "ms"},
    {"stream.consumer_busy_frac", "ratio"},
    {"irf.order_cache_ms", "ms"},
    {"irf.target_fit_p50_ms", "ms"},
    {"irf.target_fit_max_ms", "ms"},
    {"irf.forest_fit_ms", "ms"},
    {"irf.serial_loop_s", "s"},
    {"irf.parallel_efficiency", "ratio"},
    {"irf.trees_fitted", "count"},
    {"trace.overhead_frac", "ratio"},
};

const char* layer_unit(const std::string& name) {
  for (const LayerMetric& layer : kLayerMetrics) {
    if (name == layer.name) return layer.unit;
  }
  throw std::logic_error("not a layer metric: " + name);
}

/// Per-layer metrics timed by spans: a percentile of the span durations,
/// scaled to the metric's unit; then the two derived from them.
void layers_from_spans(Outcome& out) {
  const SpanLog& log = SpanLog::instance();
  struct FromSpan {
    const char* metric;
    const char* span;
    double percentile;
    double scale;
  };
  const FromSpan table[] = {
      {"service.ping_rtt_us", "service.ping", 50, 1e6},
      {"service.dispatch_submit_ms", "service.dispatch_submit", 50, 1e3},
      {"service.status_inproc_us", "service.status_inproc", 50, 1e6},
      {"lint.preflight_ms", "lint.preflight", 50, 1e3},
      {"cheetah.manifest_parse_ms", "cheetah.manifest_parse", 50, 1e3},
      {"cheetah.endpoint_create_dense_ms", "cheetah.endpoint_create_dense", 50, 1e3},
      {"cheetah.endpoint_create_sparse_ms", "cheetah.endpoint_create_sparse", 50, 1e3},
      {"cheetah.endpoint_finalize_dense_ms", "cheetah.endpoint_finalize_dense", 50, 1e3},
      {"cheetah.endpoint_finalize_sparse_ms", "cheetah.endpoint_finalize_sparse", 50, 1e3},
      {"savanna.journal_create_inline_ms", "savanna.journal_create_inline", 50, 1e3},
      {"savanna.journal_create_summary_ms", "savanna.journal_create_summary", 50, 1e3},
      {"savanna.journal_append_gc1_us", "savanna.journal_append_gc1", 50, 1e6},
      {"savanna.slice_ms", "savanna.slice", 50, 1e3},
      {"savanna.slice_nojournal_ms", "savanna.slice_nojournal", 50, 1e3},
      {"savanna.slice_large_ms", "savanna.slice_large", 50, 1e3},
      {"savanna.attempt_scan_ms", "savanna.attempt_scan", 50, 1e3},
      {"util.write_atomic_us", "util.write_file_atomic", 50, 1e6},
      {"util.json_parse_us", "util.json_parse", 50, 1e6},
      {"util.json_dump_us", "util.json_dump", 50, 1e6},
      {"irf.order_cache_ms", "irf.order_cache", 50, 1e3},
      {"irf.target_fit_p50_ms", "irf.target_fit", 50, 1e3},
      {"irf.target_fit_max_ms", "irf.target_fit", 100, 1e3},
      {"irf.forest_fit_ms", "irf.forest_fit", 50, 1e3},
  };
  for (const FromSpan& row : table) {
    const std::vector<double> durations = log.durations(row.span);
    if (durations.empty()) continue;
    out.set(row.metric, ff::percentile(durations, row.percentile) * row.scale,
            layer_unit(row.metric));
  }
  // Group commit: mean cost per append call, flushes included.
  const std::vector<double> appends = log.durations("savanna.journal_append_large");
  if (!appends.empty()) {
    out.set("savanna.journal_append_large_us", ff::mean(appends) * 1e6, "us");
  }
  // What the wire adds to an in-process dispatch of the same submit, and
  // what the phases timed one by one leave unexplained in a campaign.
  const double ack_ms = ff::median(log.durations("service.submit_wire")) * 1e3;
  out.set("service.wire_overhead_ms", ack_ms - out.get("service.dispatch_submit_ms"), "ms");
  const double done_ms = ff::median(log.durations("daemon_small.campaign")) * 1e3;
  const double phases_ms =
      2 * out.get("service.ping_rtt_us") * 1e-3 + out.get("util.json_parse_us") * 1e-3 +
      out.get("cheetah.manifest_parse_ms") + out.get("lint.preflight_ms") +
      out.get("cheetah.endpoint_create_dense_ms") +
      out.get("savanna.journal_create_inline_ms") + out.get("util.write_atomic_us") * 1e-3 +
      out.get("savanna.slice_ms") + out.get("cheetah.endpoint_finalize_dense_ms") +
      out.get("util.json_dump_us") * 1e-3;
  out.set("service.unaccounted_ms", done_ms - phases_ms, "ms");
}

void print_metrics(const char* label, const std::string& workload,
                   const std::map<std::string, Metric>& metrics) {
  ff::Json json = ff::Json::object();
  for (const auto& [name, metric] : metrics) {
    json[name] = ff::Json::object({{"value", metric.value}, {"unit", metric.unit}});
    std::printf("%-14s %-13s %-40s %16.6f %s\n", label, workload.c_str(), name.c_str(),
                metric.value, metric.unit.c_str());
  }
  std::printf("%s-json %s\n", label, json.dump().c_str());
}

int run(int argc, char** argv) {
  Context context;
  std::string workload;
  std::string spans_path;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      context.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      context.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--daemon") {
      context.daemon_exe = value;
    } else if (key == "--workdir") {
      context.workdir = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end()) {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  if ((trace != 0 && trace != 1) || context.seconds <= 0 || context.daemon_exe.empty() ||
      context.workdir.empty()) {
    throw std::runtime_error("need --trace 0|1, --seconds > 0, --daemon and --workdir");
  }
  context.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(context.workdir);

  const ff::Json host = host_stamp(context);
  std::printf("host %s\n", host.dump().c_str());

  Outcome result;
  const std::vector<double> setup = measure_setup_s(context, workload, 2.0, 31);
  result.set("setup_s", ff::median(setup), "s");
  result.set("setup_repeats", static_cast<double>(setup.size()), "count");
  const Runner runner = runner_for(workload);
  const char* throughput = throughput_metric(workload);
  if (trace == 0) {
    Outcome pass;
    runner(context, context.seconds, pass);
    merge(result, pass);
  } else {
    // Untraced and traced quarters of the same workload, in the order off,
    // on, on, off, so that a drift of the host over the run weighs on both
    // alike: their difference is the tracing overhead. Then short traced
    // passes of the other paths and the layer probes, so every layer metric
    // has a value.
    Outcome untraced;
    Outcome traced;
    std::vector<double> untraced_rates;
    std::vector<double> traced_rates;
    for (const bool on : {false, true, true, false}) {
      SpanLog::instance().set_enabled(on);
      Outcome segment;
      runner(context, context.seconds / 4, segment);
      (on ? traced_rates : untraced_rates).push_back(segment.get(throughput));
      merge(on ? traced : untraced, segment);
    }
    SpanLog::instance().set_enabled(true);
    merge(result, traced);
    merge(result, untraced);
    // How much longer the same work takes with spans on.
    result.set("trace.overhead_frac",
               ff::mean(untraced_rates) / ff::mean(traced_rates) - 1, "ratio");
    const std::vector<std::pair<std::string, double>> others = {
        {"daemon_small", 2.0}, {"daemon_large", 0.1}, {"stream_fanout", 1.5},
        {"irf_census", 0.1}};
    for (const auto& [other, seconds] : others) {
      if (other == workload) continue;
      Outcome pass;
      runner_for(other)(context, seconds, pass);
      // Only its layer metrics; its end-to-end numbers are not this run's.
      for (auto it = pass.metrics.begin(); it != pass.metrics.end();) {
        it = it->first.find('.') == std::string::npos ? pass.metrics.erase(it) : std::next(it);
      }
      merge(result, pass);
    }
    Outcome probes;
    probe_service_layers(context, probes);
    probe_stream_layers(context, probes);
    probe_irf_layers(context, probes);
    merge(result, probes);
    layers_from_spans(result);
    for (const LayerMetric& layer : kLayerMetrics) {
      if (!result.metrics.count(layer.name)) {
        result.problem(std::string("no samples for ") + layer.name);
      }
    }
    if (!spans_path.empty()) SpanLog::instance().write_jsonl(spans_path);
    std::printf("spans %zu written to %s\n", SpanLog::instance().size(), spans_path.c_str());
  }

  print_metrics("metric", workload, result.metrics);
  for (const std::string& problem : result.problems) {
    std::printf("problem %s\n", problem.c_str());
  }

  ff::Json metrics = ff::Json::object();
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    metrics[name] = ff::Json::object({{"value", value}, {"unit", unit}});
  };
  if (trace == 0) {
    emit("setup_s", result.get("setup_s"), "s");
    emit("throughput_per_s", result.get(throughput), "1/s");
  } else {
    for (const LayerMetric& layer : kLayerMetrics) {
      if (result.metrics.count(layer.name)) emit(layer.name, result.get(layer.name), layer.unit);
    }
  }
  const bool correct = result.problems.empty() && result.failed == 0;
  ff::Json line = ff::Json::object();
  line["correct"] = correct;
  line["attempted"] = static_cast<int64_t>(std::max<uint64_t>(result.attempted, 1));
  line["failed"] = static_cast<int64_t>(result.failed);
  line["metrics"] = metrics;
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
