// The four benchmark paths. Each runs against seeded inputs for a given
// number of seconds and fills an Outcome with its end-to-end metrics (named
// as in METRICS.md), operation counts and correctness problems. When the
// span log is on, each also records spans around its calls into fairflow
// and adds the layer metrics only a running path can give.
#pragma once

#include <memory>

#include "common.hpp"

namespace perfbench {

/// Set-up of one path: what must exist before its first timed operation
/// (inputs, a ready daemon, a warm plane, the dataset). Returns it alive so
/// that tearing it down stays outside the timing.
std::shared_ptr<void> setup_daemon(const Context& context);
std::shared_ptr<void> setup_stream(const Context& context);
std::shared_ptr<void> setup_irf(const Context& context);

void run_daemon_small(const Context& context, double seconds, Outcome& out);
void run_daemon_large(const Context& context, double seconds, Outcome& out);
void run_stream_fanout(const Context& context, double seconds, Outcome& out);
void run_irf_census(const Context& context, double seconds, Outcome& out);

/// Layer probes: direct calls into each module's public functions on inputs
/// shaped like the workloads, timed by spans (the span log must be on).
void probe_service_layers(const Context& context, Outcome& out);
void probe_stream_layers(const Context& context, Outcome& out);
void probe_irf_layers(const Context& context, Outcome& out);

}  // namespace perfbench
