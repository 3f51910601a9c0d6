// stream_fanout: the Fig. 5 data plane in-process. The calling thread is
// the generator: it publishes records open loop at a ladder of fixed rates
// into a StreamPipeline with 2 workers; consumers have a fixed small cost.
// Nothing in service or savanna runs here.

#include <array>
#include <cmath>
#include <cstdio>

#include "stream/channel.hpp"
#include "stream/marshal.hpp"
#include "stream/pipeline.hpp"
#include "stream/scheduler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ff::stream::Record;

constexpr size_t kWorkers = 2;
constexpr size_t kForwardQueues = 3;
constexpr size_t kWindow = 32;            // sliding-window-count capacity
constexpr uint64_t kPunctuateEvery = 256;  // records between punctuations
constexpr double kConsumerCost_s = 1e-6;   // fixed work per delivered record
// A rate is sustainable when its delivery p99 stays within this limit and
// the generator ends the step on schedule (the backlog did not grow).
constexpr double kLatencyLimit_s = 0.020;
// Attempts at one rate before it counts as failed: one descheduling stall
// on a shared host can push a single step's p99 past the limit.
constexpr int kAttempts = 3;
// The low-load reference rate (records/s) and the share of the run spent
// there; delivery_p50/p99 are measured at this rate.
constexpr double kLowRate = 2000;
constexpr double kLowShare = 0.3;
// The ladder: from kLadderStart up by kLadderGrowth until a rate fails,
// then kBisections halvings of the last bracket.
constexpr double kLadderStart = 5000;
constexpr double kLadderGrowth = 1.5;
constexpr double kLadderMax = 5e6;
constexpr int kBisections = 5;
constexpr uint64_t kSpanEvery = 16;  // traced: every Nth record gets spans

ff::stream::StreamSchema record_schema() {
  ff::stream::StreamSchema schema;
  schema.name = "reading";
  schema.version = 1;
  schema.fields = {{"due_ns", "int"}, {"value", "double"}, {"sensor", "int"}};
  return schema;
}

/// Record `sequence` of a run: deterministic in (seed, sequence) except for
/// its due time, which the generator stamps.
Record make_record(uint64_t seed, uint64_t sequence, double due_s) {
  const uint64_t bits = ff::splitmix64(seed ^ (sequence * 0x9e3779b97f4a7c15ULL));
  Record record;
  record.sequence = sequence;
  record.timestamp = due_s;
  record.values = {static_cast<int64_t>(due_s * 1e9),
                   static_cast<double>(bits >> 11) * 0x1.0p-53,
                   static_cast<int64_t>(bits % 64)};
  return record;
}

void spin_for(double seconds) {
  const double until = now_s() + seconds;
  while (now_s() < until) {
  }
}

std::string queue_name(size_t q) { return "fwd" + std::to_string(q); }

/// Per-queue consumer state. Each queue drains on its own strand, so only
/// one thread touches a queue's state at a time.
struct QueueState {
  uint64_t expected = 0;  // next sequence (forward-all queues)
  uint64_t last = 0;      // last sequence seen (window queue)
  bool any = false;
  uint64_t received = 0;
  uint64_t order_errors = 0;
  uint64_t wire_errors = 0;
  uint64_t wire_records = 0;
  double busy_s = 0;
};

struct Plane {
  uint64_t seed;
  std::unique_ptr<ff::stream::StreamPipeline> pipeline;
  std::array<QueueState, kForwardQueues + 2> state;  // fwd..., window, tap
  std::vector<float> latency;  // fwd0 delivery latency of the current step
  ff::stream::DecodedStream decoded;  // tap decode buffer (tap strand only)
};

constexpr size_t kWindowIndex = kForwardQueues;
constexpr size_t kTapIndex = kForwardQueues + 1;

size_t queue_index(const std::string& queue) {
  if (queue[0] == 'w') return kWindowIndex;
  if (queue[0] == 't') return kTapIndex;
  return static_cast<size_t>(queue[3] - '0');
}

std::unique_ptr<Plane> build_plane(uint64_t seed) {
  auto plane = std::make_unique<Plane>();
  plane->seed = seed;
  plane->pipeline = std::make_unique<ff::stream::StreamPipeline>(kWorkers);
  ff::stream::StreamPipeline& pipeline = *plane->pipeline;
  const ff::stream::StreamSchema schema = record_schema();
  for (size_t q = 0; q < kForwardQueues; ++q) {
    pipeline.install_queue(queue_name(q),
                           std::make_unique<ff::stream::ForwardAllPolicy>());
  }
  pipeline.install_queue("window",
                         std::make_unique<ff::stream::SlidingWindowCountPolicy>(kWindow));
  ff::stream::QueueOptions tap_options;
  tap_options.format = ff::stream::WireFormat::Binary;
  pipeline.install_queue("tap", std::make_unique<ff::stream::ForwardAllPolicy>(),
                         tap_options);
  pipeline.register_schema("tap", schema);
  Plane* raw = plane.get();
  pipeline.set_wire_sink("tap", [raw, schema](const std::string&,
                                              std::vector<uint8_t> chunk) {
    // The downstream end of the wire: decode the chunk and compare it with
    // the records the generator made.
    QueueState& state = raw->state[kTapIndex];
    const double t0 = now_s();
    try {
      ff::stream::decode_frame_stream_into(chunk, schema, raw->decoded);
      for (const Record& record : raw->decoded.records) {
        const Record expected = make_record(raw->seed, record.sequence, record.timestamp);
        if (record != expected) ++state.wire_errors;
      }
      state.wire_records += raw->decoded.records.size();
    } catch (const std::exception&) {
      ++state.wire_errors;
    }
    state.busy_s += now_s() - t0;
  });
  pipeline.subscribe([raw](const std::string& queue, const Record& record) {
    const double t0 = now_s();
    const size_t index = queue_index(queue);
    QueueState& state = raw->state[index];
    ++state.received;
    if (index == kWindowIndex) {
      if (state.any && record.sequence <= state.last) ++state.order_errors;
      state.last = record.sequence;
      state.any = true;
    } else {
      if (record.sequence != state.expected) ++state.order_errors;
      state.expected = record.sequence + 1;
    }
    if (index == 0) {
      const double due = static_cast<double>(std::get<int64_t>(record.values[0])) * 1e-9;
      raw->latency.push_back(static_cast<float>(t0 - due));
      if (record.sequence % kSpanEvery == 0) {
        SpanLog::instance().add("stream.delivery", record.sequence, -1, due, t0);
      }
    }
    spin_for(kConsumerCost_s);
    state.busy_s += now_s() - t0;
  });
  return plane;
}

struct StepResult {
  double rate = 0;
  double p50_s = 0;
  double p99_s = 0;
  double mean_s = 0;
  size_t samples = 0;
  double end_lag_s = 0;  // how far behind schedule the generator ended
  bool sustainable = false;
};

}  // namespace

std::shared_ptr<void> setup_stream(const Context& context) {
  std::shared_ptr<Plane> plane = build_plane(context.seed);
  // First records through every queue: the plane is warm once they arrive.
  for (uint64_t i = 0; i < 64; ++i) {
    plane->pipeline->publish(make_record(context.seed, i, now_s()));
  }
  plane->pipeline->wait_quiescent();
  return plane;
}

void run_stream_fanout(const Context& context, double seconds, Outcome& out) {
  const bool traced = SpanLog::instance().enabled();
  std::unique_ptr<Plane> plane = build_plane(context.seed);
  ff::stream::StreamPipeline& pipeline = *plane->pipeline;
  plane->latency.reserve(1 << 20);

  uint64_t sequence = 0;
  uint64_t punctuations = 0;
  std::vector<double> lag;  // generator lateness, sampled
  std::vector<double> publish_s;
  size_t depth_max = 0;
  const double run_start = now_s();

  // One open-loop step: publish at `rate` for `duration`, each record
  // stamped with its due time, then wait until everything is delivered.
  auto run_step = [&](double rate, double duration) {
    plane->latency.clear();
    const double start = now_s();
    const double end = start + duration;
    const uint64_t first = sequence;
    double next_depth_sample = start;
    for (;;) {
      const double now = now_s();
      if (now >= end) break;
      const uint64_t due_count = static_cast<uint64_t>((now - start) * rate) + 1;
      while (sequence - first < due_count) {
        const double due = start + static_cast<double>(sequence - first) / rate;
        if (due >= end) break;
        const Record record = make_record(context.seed, sequence, due);
        const bool sampled = sequence % kSpanEvery == 0;
        const double t0 = now_s();
        pipeline.publish(record);
        if (sampled) {
          const double t1 = now_s();
          lag.push_back(t0 - due);
          if (traced) {
            publish_s.push_back(t1 - t0);
            SpanLog::instance().add("stream.publish", sequence, -1, t0, t1);
          }
        }
        ++sequence;
        if (sequence % kPunctuateEvery == 0) {
          pipeline.punctuate(ff::Json::object());
          ++punctuations;
        }
      }
      // Sampled whether or not spans are on, so that trace.overhead_frac
      // counts only the spans.
      if (now >= next_depth_sample) {
        next_depth_sample = now + 0.001;
        for (const char* q : {"fwd0", "fwd1", "fwd2", "window", "tap"}) {
          depth_max = std::max(depth_max, pipeline.report(q).depth);
        }
      }
      const double next_due = start + static_cast<double>(sequence - first) / rate;
      if (next_due - now_s() > 0.0005) sleep_until_s(std::min(next_due, end));
    }
    StepResult step;
    step.rate = rate;
    const double expected_end = start + static_cast<double>(sequence - first) / rate;
    step.end_lag_s = std::max(0.0, now_s() - std::max(expected_end, end));
    pipeline.wait_quiescent();
    std::vector<double> latency(plane->latency.begin(), plane->latency.end());
    step.p50_s = ff::median(latency);
    step.p99_s = ff::percentile(latency, 99);
    step.mean_s = ff::mean(latency);
    step.samples = latency.size();
    step.sustainable = step.p99_s <= kLatencyLimit_s && step.end_lag_s <= kLatencyLimit_s;
    std::printf("ladder %-13s rate %10.0f/s  p50 %8.3f ms  p99 %8.3f ms  end lag %7.3f ms  %s\n",
                "stream_fanout", rate, step.p50_s * 1e3, step.p99_s * 1e3,
                step.end_lag_s * 1e3, step.sustainable ? "ok" : "over");
    return step;
  };
  const double step_s = std::max(0.1, seconds * 0.025);
  auto sustainable_at = [&](double rate) {
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      if (run_step(rate, step_s).sustainable) return true;
    }
    return false;
  };

  const StepResult low = run_step(kLowRate, seconds * kLowShare);
  double pass = kLowRate;
  double fail = 0;
  for (double rate = kLadderStart; rate <= kLadderMax; rate *= kLadderGrowth) {
    if (!sustainable_at(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  for (int i = 0; i < kBisections && fail > 0; ++i) {
    const double mid = std::sqrt(pass * fail);
    (sustainable_at(mid) ? pass : fail) = mid;
  }
  const double run_s = now_s() - run_start;
  pipeline.wait_quiescent();
  const ff::stream::StreamPipeline::Totals totals = pipeline.totals();
  pipeline.shutdown();

  // Correctness: every Block queue delivered each record exactly once in
  // release order, the window queue released kWindow records per
  // punctuation in increasing order, and the tap's chunks decoded back to
  // the generated records.
  for (size_t q = 0; q < kForwardQueues; ++q) {
    const QueueState& state = plane->state[q];
    if (state.received != sequence || state.order_errors > 0) {
      out.problem(queue_name(q) + ": delivered " + std::to_string(state.received) + " of " +
                  std::to_string(sequence) + ", " +
                  std::to_string(state.order_errors) + " out of order");
    }
  }
  {
    const QueueState& window = plane->state[kWindowIndex];
    if (window.received != punctuations * kWindow || window.order_errors > 0) {
      out.problem("window: delivered " + std::to_string(window.received) +
                  ", expected " + std::to_string(punctuations * kWindow));
    }
    const QueueState& tap = plane->state[kTapIndex];
    if (tap.received != sequence || tap.order_errors > 0 || tap.wire_errors > 0 ||
        tap.wire_records != sequence) {
      out.problem("tap: " + std::to_string(tap.wire_records) + " records decoded of " +
                  std::to_string(sequence) + ", " + std::to_string(tap.wire_errors) +
                  " mismatches");
    }
  }
  out.attempted += sequence;
  if (totals.dropped > 0) out.problem(std::to_string(totals.dropped) + " records dropped");

  out.set("delivery_p50_ms", low.p50_s * 1e3, "ms");
  out.set("delivery_p99_ms", low.p99_s * 1e3, "ms");
  out.set("delivery_mean_ms", low.mean_s * 1e3, "ms");
  out.set("sustainable_records_per_s", pass, "1/s");
  out.set("low_rate_samples", static_cast<double>(low.samples), "count");

  double busy = 0;
  for (const QueueState& state : plane->state) busy += state.busy_s;
  out.set("stream.consumer_busy_frac",
          busy / (static_cast<double>(kWorkers) * run_s), "ratio");
  out.set("stream.delivered", static_cast<double>(totals.delivered), "count");
  out.set("stream.dropped", static_cast<double>(totals.dropped), "count");
  out.set("stream.generator_lag_ms", ff::percentile(lag, 99) * 1e3, "ms");
  out.set("stream.queue_depth_max", static_cast<double>(depth_max), "count");
  if (traced) {
    out.set("stream.publish_p50_us", ff::median(publish_s) * 1e6, "us");
    out.set("stream.publish_p99_us", ff::percentile(publish_s, 99) * 1e6, "us");
  }
}

void probe_stream_layers(const Context& context, Outcome& out) {
  const ff::stream::StreamSchema schema = record_schema();
  constexpr uint64_t kRecords = 200000;
  std::vector<Record> records;
  records.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    records.push_back(make_record(context.seed, i, static_cast<double>(i) * 1e-5));
  }

  // The same queues and policies through the synchronous scheduler with
  // cost-free consumers: the single-threaded baseline.
  {
    ff::stream::DataScheduler scheduler;
    for (size_t q = 0; q < kForwardQueues; ++q) {
      scheduler.install_queue(queue_name(q), std::make_unique<ff::stream::ForwardAllPolicy>());
    }
    scheduler.install_queue("window",
                            std::make_unique<ff::stream::SlidingWindowCountPolicy>(kWindow));
    scheduler.install_queue("tap", std::make_unique<ff::stream::ForwardAllPolicy>());
    uint64_t delivered = 0;
    scheduler.subscribe([&](const std::string&, const Record&) { ++delivered; });
    ScopedSpan span("stream.sync_publish", 0);
    const double t0 = now_s();
    for (const Record& record : records) {
      scheduler.publish(record);
      if ((record.sequence + 1) % kPunctuateEvery == 0) scheduler.punctuate(ff::Json::object());
    }
    out.set("stream.sync_records_per_s", static_cast<double>(kRecords) / (now_s() - t0), "1/s");
    if (delivered < kRecords * (kForwardQueues + 1)) out.problem("sync scheduler lost records");
  }

  // The channel kind the plane uses, one thread: send then receive.
  {
    const ff::stream::QueueOptions defaults;
    auto channel = ff::stream::make_channel(defaults.channel, defaults.capacity);
    ScopedSpan span("stream.channel_ops", 0);
    const double t0 = now_s();
    for (const Record& record : records) {
      channel->send(record);
      if (!channel->try_receive()) out.problem("channel lost a record");
    }
    out.set("stream.channel_ops_per_s", static_cast<double>(kRecords) / (now_s() - t0), "1/s");
  }

  // The tap's binary codec on the same records.
  {
    ff::stream::FrameEncoder encoder(schema);
    double t0 = now_s();
    {
      ScopedSpan span("stream.marshal_encode", 0);
      for (const Record& record : records) encoder.append(record);
    }
    out.set("stream.marshal_encode_ns_per_record",
            (now_s() - t0) * 1e9 / static_cast<double>(kRecords), "ns");
    ff::stream::DecodedStream decoded;
    t0 = now_s();
    {
      ScopedSpan span("stream.marshal_decode", 0);
      ff::stream::decode_frame_stream_into(encoder.bytes(), schema, decoded);
    }
    out.set("stream.marshal_decode_ns_per_record",
            (now_s() - t0) * 1e9 / static_cast<double>(kRecords), "ns");
    if (decoded.records != records) out.problem("binary codec did not round-trip");
  }
}

}  // namespace perfbench
