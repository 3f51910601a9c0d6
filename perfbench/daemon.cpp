// daemon_small and daemon_large: the real fairflowd binary as a child
// process, driven over its Unix socket. Also the probes of the layers a
// submit passes through (service, lint, cheetah, savanna, util).

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cheetah/campaign.hpp"
#include "cheetah/endpoint.hpp"
#include "cluster/workload.hpp"
#include "gwas/workflow.hpp"
#include "lint/workspace.hpp"
#include "savanna/campaign_runner.hpp"
#include "savanna/journal.hpp"
#include "service/core.hpp"
#include "service/session.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using ff::Json;

// Above every campaign count a run can reach: the daemon's default quota
// (8 per session, finished campaigns included) would refuse daemon_small's
// ninth submit. The value is printed with the workload's report.
constexpr size_t kQuota = 1000000;
constexpr int kSmallClients = 2;
constexpr size_t kSmallMinRuns = 8;
constexpr size_t kSmallMaxRuns = 256;
// daemon_large: every campaign has kLargeRuns runs (the seed varies names
// and durations); the walltime slices it into four allocations at
// kLargeNodes nodes.
constexpr size_t kLargeRuns = 100000;
constexpr int64_t kLargeNodes = 1024;
constexpr double kLargeWalltime = 12000;
constexpr double kStatusRate = 200;  // status polls per second, open loop

struct CampaignInput {
  std::string name;
  size_t runs = 0;
  uint64_t duration_seed = 0;
  bool large = false;
};

CampaignInput small_input(uint64_t seed, int client, size_t index) {
  ff::Rng rng(ff::splitmix64(seed * 1000003 + static_cast<uint64_t>(client) * 7919 +
                             index * 104729));
  CampaignInput input;
  input.name = "small-" + std::to_string(seed) + "-c" + std::to_string(client) +
               "-" + std::to_string(index);
  // Log-uniform in [8, 256]: most campaigns are small, a few reach 256.
  const double lo = std::log(static_cast<double>(kSmallMinRuns));
  const double hi = std::log(static_cast<double>(kSmallMaxRuns));
  input.runs = static_cast<size_t>(std::lround(std::exp(rng.uniform(lo, hi))));
  input.duration_seed = rng();
  return input;
}

CampaignInput large_input(uint64_t seed, size_t index) {
  ff::Rng rng(ff::splitmix64(seed * 31337 + index));
  CampaignInput input;
  input.name = "large-" + std::to_string(seed) + "-" + std::to_string(index);
  input.runs = kLargeRuns;
  input.duration_seed = rng();
  input.large = true;
  return input;
}

Json manifest_for(const CampaignInput& input) {
  ff::cheetah::AppSpec app;
  app.name = "sim";
  app.executable = "sim_exe";
  app.args_template = "--x {{x}}";
  ff::cheetah::Campaign campaign(input.name, app);
  ff::cheetah::Sweep sweep("xs");
  sweep.add(ff::cheetah::Parameter::int_range(
      "x", ff::cheetah::ParamLayer::Application, 0,
      static_cast<int64_t>(input.runs) - 1));
  ff::cheetah::SweepGroup group("g");
  group.add(std::move(sweep));
  if (input.large) {
    group.set_nodes(static_cast<int>(kLargeNodes)).set_walltime_s(kLargeWalltime);
  } else {
    // Wide and long enough that every run fits one allocation.
    group.set_nodes(64).set_walltime_s(1e7);
  }
  campaign.add_group(std::move(group));
  return campaign.to_json();
}

Json submit_request(const CampaignInput& input) {
  Json request = Json::object();
  request["cmd"] = "submit";
  request["manifest"] = manifest_for(input);
  Json duration = Json::object();
  duration["seed"] = static_cast<int64_t>(input.duration_seed >> 1);
  if (input.large) {
    // Heavy-tailed stragglers would outlast the slice walltime and never
    // finish; the lognormal body alone always fits.
    duration["straggler_fraction"] = 0.0;
  }
  request["duration"] = std::move(duration);
  if (input.large) {
    Json journal = Json::object();
    journal["group_commit"] = int64_t{16};
    journal["checkpoint_every"] = int64_t{3};
    request["journal"] = std::move(journal);
  }
  return request;
}

/// The journal policy and execution shape the daemon derives from a submit
/// request, for probes that call savanna directly.
ff::savanna::CampaignRunOptions run_options_for(const CampaignInput& input) {
  const ff::service::CampaignConfig config =
      ff::service::campaign_config_from_request(submit_request(input));
  ff::savanna::CampaignRunOptions options;
  options.retry = config.retry;
  options.journal = config.journal;
  options.execution.nodes = input.large ? static_cast<int>(kLargeNodes) : 64;
  options.execution.walltime_s = input.large ? kLargeWalltime : 1e7;
  options.max_allocations = 1;
  return options;
}

std::vector<ff::sim::TaskSpec> tasks_for(const CampaignInput& input,
                                         const ff::cheetah::Campaign& campaign) {
  const ff::service::CampaignConfig config =
      ff::service::campaign_config_from_request(submit_request(input));
  std::vector<ff::sim::TaskSpec> tasks;
  tasks.reserve(input.runs);
  campaign.groups().front().for_each_run([&](const ff::cheetah::RunSpec& run) {
    ff::sim::TaskSpec task;
    task.id = run.id;
    tasks.push_back(std::move(task));
  });
  ff::Rng rng(config.duration_seed);
  for (ff::sim::TaskSpec& task : tasks) task.duration_s = config.durations.sample(rng);
  return tasks;
}

bool terminal_state(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

/// Wait until campaign `name` is terminal: subscribe, then ask for status,
/// and take whichever reports a terminal state first. A campaign that
/// finished before the subscription attached is caught by the status reply;
/// one still running is caught by its pushed state event.
std::string await_terminal(WireClient& client, const std::string& name,
                           double& observed_at) {
  const int64_t subscribe_id =
      client.send(Json::object({{"cmd", "subscribe"}, {"campaign", name}}));
  const int64_t status_id =
      client.send(Json::object({{"cmd", "status"}, {"campaign", name}}));
  bool subscribe_seen = false;
  bool status_seen = false;
  std::string terminal;
  Json frame;
  while (!(subscribe_seen && status_seen && !terminal.empty())) {
    if (!client.read_frame(frame)) throw std::runtime_error("daemon hung up");
    std::string state;
    if (is_event_frame(frame)) {
      if (frame.get_or("campaign", "") != name) continue;
      const Json& event = frame["event"];
      if (event.get_or("event", "") != "service.campaign.state") continue;
      state = event.get_or("state", "");
    } else {
      const int64_t id = frame.get_or("id", int64_t{0});
      if (!frame.get_or("ok", false)) {
        throw std::runtime_error("reply error for " + name + ": " + frame.dump());
      }
      if (id == subscribe_id) subscribe_seen = true;
      if (id != status_id) continue;
      status_seen = true;
      state = frame["campaign"].get_or("state", "");
    }
    if (terminal.empty() && terminal_state(state)) {
      terminal = state;
      observed_at = now_s();
    }
  }
  return terminal;
}

/// Empty when the journal at `path` replays cleanly and accounts for every
/// one of `runs` runs as done; otherwise what is wrong.
std::string check_journal(const std::string& path, size_t runs) {
  const ff::savanna::CampaignJournal::Replay replay =
      ff::savanna::CampaignJournal::replay(path);
  if (!replay.has_header()) return "journal has no header";
  if (replay.torn_tail) return "journal has a torn tail";
  if (static_cast<size_t>(replay.header.get_or("run_count", int64_t{-1})) != runs) {
    return "journal header run_count differs from the manifest";
  }
  std::unordered_set<std::string> done;
  if (replay.has_checkpoint()) {
    for (const auto& [id, record] : replay.checkpoint["tracker"].as_object()) {
      if (record.get_or("state", "") == "done") done.insert(id);
    }
  }
  for (const Json& alloc : replay.allocations) {
    for (const Json& id : alloc["completed"].as_array()) done.insert(id.as_string());
  }
  if (replay.header.contains("runs")) {
    std::unordered_set<std::string> known;
    for (const Json& id : replay.header["runs"].as_array()) known.insert(id.as_string());
    for (const std::string& id : done) {
      if (!known.count(id)) return "journal completes unknown run " + id;
    }
  }
  if (done.size() != runs) {
    return "journal accounts for " + std::to_string(done.size()) + " of " +
           std::to_string(runs) + " runs";
  }
  return "";
}

struct Finished {
  CampaignInput input;
  std::string directory;
};

/// Status + journal checks for every finished campaign; each failure is a
/// problem in `out`. Adds allocation and journal-byte counts to `out`.
void verify_campaigns(const std::string& socket, const std::vector<Finished>& done,
                          Outcome& out) {
  WireClient client(socket);
  double allocations = 0;
  double journal_bytes = 0;
  for (const Finished& campaign : done) {
    const Json reply = client.call(
        Json::object({{"cmd", "status"}, {"campaign", campaign.input.name}}));
    std::string problem;
    if (!reply.get_or("ok", false)) {
      problem = "status refused";
    } else {
      const Json& info = reply["campaign"];
      allocations += static_cast<double>(info.get_or("allocations", int64_t{0}));
      if (info.get_or("state", "") != "done") {
        problem = "state " + info.get_or("state", "");
      } else if (static_cast<size_t>(info["counts"].get_or("done", int64_t{0})) !=
                 campaign.input.runs) {
        problem = "counts.done != runs";
      }
    }
    const std::string journal = campaign.directory + "/.campaign/journal.jsonl";
    if (problem.empty()) {
      try {
        problem = check_journal(journal, campaign.input.runs);
      } catch (const std::exception& error) {
        problem = std::string("journal replay failed: ") + error.what();
      }
    }
    std::error_code ignored;
    journal_bytes += static_cast<double>(fs::file_size(journal, ignored));
    if (!problem.empty()) out.problem(campaign.input.name + ": " + problem);
  }
  out.metrics["savanna.allocations"].value += allocations;
  out.metrics["savanna.allocations"].unit = "count";
  out.metrics["savanna.journal_bytes"].value += journal_bytes;
  out.metrics["savanna.journal_bytes"].unit = "bytes";
}

void add_count(Outcome& out, const std::string& name, double delta) {
  out.metrics[name].value += delta;
  out.metrics[name].unit = "count";
}

int next_pass() {
  static std::atomic<int> pass{0};
  return pass.fetch_add(1);
}

std::string pass_dir(const Context& context, const char* tag) {
  return context.workdir + "/" + tag + std::to_string(next_pass());
}

}  // namespace

std::shared_ptr<void> setup_daemon(const Context& context) {
  // A daemon that answers ping; its shutdown is not part of set-up.
  return std::make_shared<DaemonProcess>(context, pass_dir(context, "setup"), kQuota);
}

void run_daemon_small(const Context& context, double seconds, Outcome& out) {
  const bool traced = SpanLog::instance().enabled();
  const std::string dir = pass_dir(context, "small");
  DaemonProcess daemon(context, dir, kQuota);

  if (traced) {
    // Idle-connection round trip: the framing and readiness-loop floor.
    WireClient pinger(daemon.socket_path());
    const Json ping = Json::object({{"cmd", "ping"}});
    for (int i = 0; i < 1000; ++i) {
      ScopedSpan span("service.ping", static_cast<uint64_t>(i));
      pinger.call(ping);
    }
    add_count(out, "service.requests", static_cast<double>(pinger.requests()));
    add_count(out, "service.error_replies", static_cast<double>(pinger.error_replies()));
  }

  struct ClientLog {
    std::vector<double> ack_s;
    std::vector<double> done_s;
    std::vector<Finished> finished;
    uint64_t attempted = 0;
    std::vector<std::string> errors;
    double last_done = 0;
    uint64_t requests = 0;
    uint64_t error_replies = 0;
  };
  std::vector<ClientLog> logs(kSmallClients);
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < kSmallClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      try {
        WireClient client(daemon.socket_path());
        for (size_t i = 0; now_s() < deadline; ++i) {
          const CampaignInput input = small_input(context.seed, c, i);
          Json request = submit_request(input);
          // Ids above anything WireClient::send hands out.
          const int64_t id = (int64_t{1} << 40) + static_cast<int64_t>(i);
          request["id"] = id;
          const std::string frame = request.dump() + "\n";
          const uint64_t span_id = (static_cast<uint64_t>(c) << 32) | i;
          ++log.attempted;
          const double t0 = now_s();
          client.send_raw(frame);
          const Json reply = client.await_reply(id);
          const double t_ack = now_s();
          if (!reply.get_or("ok", false)) {
            log.errors.push_back(input.name + ": submit refused: " + reply.dump());
            continue;
          }
          double t_done = 0;
          const std::string state = await_terminal(client, input.name, t_done);
          if (state != "done") {
            log.errors.push_back(input.name + ": ended " + state);
            continue;
          }
          log.ack_s.push_back(t_ack - t0);
          log.done_s.push_back(t_done - t0);
          log.last_done = std::max(log.last_done, t_done);
          log.finished.push_back(Finished{input, reply.get_or("directory", "")});
          const int64_t root =
              SpanLog::instance().add("daemon_small.campaign", span_id, -1, t0, t_done);
          SpanLog::instance().add("service.submit_wire", span_id, root, t0, t_ack);
          SpanLog::instance().add("service.await_done", span_id, root, t_ack, t_done);
        }
        log.requests = client.requests();
        log.error_replies = client.error_replies();
      } catch (const std::exception& error) {
        log.errors.push_back(std::string("client failed: ") + error.what());
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::vector<double> ack;
  std::vector<double> done;
  std::vector<Finished> finished;
  double last_done = start;
  for (ClientLog& log : logs) {
    ack.insert(ack.end(), log.ack_s.begin(), log.ack_s.end());
    done.insert(done.end(), log.done_s.begin(), log.done_s.end());
    finished.insert(finished.end(), log.finished.begin(), log.finished.end());
    last_done = std::max(last_done, log.last_done);
    out.attempted += log.attempted;
    for (std::string& error : log.errors) out.problem(std::move(error));
    add_count(out, "service.requests", static_cast<double>(log.requests));
    add_count(out, "service.error_replies", static_cast<double>(log.error_replies));
  }
  verify_campaigns(daemon.socket_path(), finished, out);
  if (daemon.stop() != 0) out.problem("fairflowd did not drain cleanly");

  const double window = last_done - start;
  out.set("campaigns_per_s",
          window > 0 ? static_cast<double>(done.size()) / window : 0, "1/s");
  out.set("submit_ack_p50_ms", ff::median(ack) * 1e3, "ms");
  out.set("campaign_done_p50_ms", ff::median(done) * 1e3, "ms");
  out.set("campaign_done_p99_ms", ff::percentile(done, 99) * 1e3, "ms");
  out.set("campaigns", static_cast<double>(done.size()), "count");
  out.set("daemon_quota", static_cast<double>(kQuota), "campaigns");
}

void run_daemon_large(const Context& context, double seconds, Outcome& out) {
  const std::string dir = pass_dir(context, "large");
  DaemonProcess daemon(context, dir, kQuota);
  WireClient submitter(daemon.socket_path());
  WireClient poller(daemon.socket_path());

  // A finished 8-run campaign gives the poller a target before the first
  // large submit is acknowledged.
  std::vector<Finished> finished;
  CampaignInput anchor = small_input(context.seed, 99, 0);
  anchor.runs = kSmallMinRuns;
  {
    const Json reply = submitter.call(submit_request(anchor));
    double ignored = 0;
    if (!reply.get_or("ok", false) ||
        await_terminal(submitter, anchor.name, ignored) != "done") {
      throw std::runtime_error("anchor campaign did not finish");
    }
    finished.push_back(Finished{anchor, reply.get_or("directory", "")});
  }

  std::mutex mutex;
  std::condition_variable changed;
  std::string target = anchor.name;  // what the poller asks about
  std::string awaited;               // large campaign we wait on, if any
  double awaited_done_at = 0;
  std::unordered_map<int64_t, double> due_by_id;
  std::vector<double> status_latency;
  uint64_t polls_sent = 0;
  uint64_t polls_answered = 0;
  uint64_t poll_errors = 0;
  bool stop_polling = false;

  const double start = now_s();
  const double deadline = start + seconds;
  std::thread sender([&] {
    try {
      for (uint64_t k = 0;; ++k) {
        const double due = start + static_cast<double>(k) / kStatusRate;
        sleep_until_s(due);
        std::string name;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (stop_polling) break;
          name = target;
        }
        // Register the due time before sending, and send outside the lock:
        // the receiver must never wait on a sender blocked in send().
        const int64_t id = (int64_t{1} << 40) + static_cast<int64_t>(k);
        Json request =
            Json::object({{"id", id}, {"cmd", "status"}, {"campaign", name}});
        {
          std::lock_guard<std::mutex> lock(mutex);
          due_by_id[id] = due;
          ++polls_sent;
        }
        poller.send_raw(request.dump() + "\n");
      }
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock(mutex);
      stop_polling = true;
    }
    changed.notify_all();
  });
  std::thread receiver([&] {
    Json frame;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (stop_polling && polls_answered == polls_sent) break;
      }
      if (!poller.read_frame(frame)) break;
      const double at = now_s();
      if (is_event_frame(frame)) continue;
      std::lock_guard<std::mutex> lock(mutex);
      const int64_t id = frame.get_or("id", int64_t{0});
      const auto it = due_by_id.find(id);
      if (it == due_by_id.end()) continue;
      const double due = it->second;
      due_by_id.erase(it);
      ++polls_answered;
      status_latency.push_back(at - due);
      if (!frame.get_or("ok", false)) {
        ++poll_errors;
      } else {
        const Json& info = frame["campaign"];
        if (!awaited.empty() && awaited_done_at == 0 &&
            info.get_or("campaign", "") == awaited &&
            terminal_state(info.get_or("state", ""))) {
          awaited_done_at = at;
        }
      }
      changed.notify_all();
    }
  });

  std::vector<double> ack_s;
  std::vector<double> done_s;
  double runs_done = 0;
  double run_time_s = 0;  // submit sent -> done, summed over campaigns
  uint64_t campaigns_attempted = 0;
  for (size_t k = 0; now_s() < deadline; ++k) {
    const CampaignInput input = large_input(context.seed, k);
    Json request = submit_request(input);
    ++campaigns_attempted;
    const double t0 = now_s();
    const Json reply = submitter.call(std::move(request));
    const double t_ack = now_s();
    if (!reply.get_or("ok", false)) {
      out.problem(input.name + ": submit refused: " + reply.dump());
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex);
    target = input.name;
    awaited = input.name;
    awaited_done_at = 0;
    if (!changed.wait_for(lock, std::chrono::seconds(120), [&] {
          return awaited_done_at > 0 || stop_polling;
        }) || awaited_done_at == 0) {
      out.problem(input.name + ": not done within 120 s");
      break;
    }
    const double t_done = awaited_done_at;
    lock.unlock();
    ack_s.push_back(t_ack - t0);
    done_s.push_back(t_done - t0);
    runs_done += static_cast<double>(input.runs);
    run_time_s += t_done - t0;
    std::printf("campaign %-13s %-22s runs %7zu  ack %7.3f s  done %7.3f s  %9.0f runs/s\n",
                "daemon_large", input.name.c_str(), input.runs, t_ack - t0, t_done - t0,
                static_cast<double>(input.runs) / (t_done - t0));
    finished.push_back(Finished{input, reply.get_or("directory", "")});
    const uint64_t span_id = k;
    const int64_t root =
        SpanLog::instance().add("daemon_large.campaign", span_id, -1, t0, t_done);
    SpanLog::instance().add("service.large_submit_wire", span_id, root, t0, t_ack);
    SpanLog::instance().add("service.large_run_to_done", span_id, root, t_ack, t_done);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop_polling = true;
  }
  sender.join();
  // One more ping on the poller connection unblocks a receiver waiting in
  // read_frame after the last status reply.
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (polls_answered == polls_sent) {
      poller.send(Json::object({{"cmd", "ping"}}));
    }
  }
  receiver.join();

  out.attempted += campaigns_attempted + polls_sent;
  if (poll_errors > 0) {
    out.failed += poll_errors;
    out.problems.push_back(std::to_string(poll_errors) + " status polls failed");
  }
  verify_campaigns(daemon.socket_path(), finished, out);
  add_count(out, "service.requests",
            static_cast<double>(submitter.requests() + poller.requests()));
  add_count(out, "service.error_replies",
            static_cast<double>(submitter.error_replies() + poller.error_replies()));
  if (daemon.stop() != 0) out.problem("fairflowd did not drain cleanly");

  out.set("large_submit_ack_s", ff::median(ack_s), "s");
  out.set("large_done_p50_s", ff::median(done_s), "s");
  out.set("large_runs_per_s", run_time_s > 0 ? runs_done / run_time_s : 0, "1/s");
  out.set("status_p50_ms", ff::median(status_latency) * 1e3, "ms");
  out.set("status_p99_ms", ff::percentile(status_latency, 99) * 1e3, "ms");
  out.set("status_mean_ms", ff::mean(status_latency) * 1e3, "ms");
  out.set("large_campaigns", static_cast<double>(ack_s.size()), "count");
  out.set("status_polls", static_cast<double>(status_latency.size()), "count");
  out.set("daemon_quota", static_cast<double>(kQuota), "campaigns");
}

void probe_service_layers(const Context& context, Outcome& out) {
  const std::string dir = pass_dir(context, "probe");
  fs::create_directories(dir);
  constexpr size_t kSamples = 24;
  std::vector<CampaignInput> small;
  // The frames daemon_small's first client submits first, so the in-process
  // dispatch and the wire ack are timed on the same requests.
  for (size_t i = 0; i < kSamples; ++i) small.push_back(small_input(context.seed, 0, i));
  const CampaignInput large = large_input(context.seed, 77);

  // util: the host's fsync, and a sidecar-sized atomic write.
  out.set("util.fsync_us", measure_fsync_us(dir, 50), "us");
  {
    const std::string sidecar(600, 's');
    for (int i = 0; i < 50; ++i) {
      ScopedSpan span("util.write_file_atomic", static_cast<uint64_t>(i));
      ff::write_file_atomic(dir + "/sidecar.json", sidecar);
    }
  }

  // util JSON: submit frames parsed, status reply frames dumped.
  for (size_t i = 0; i < small.size(); ++i) {
    const std::string frame = submit_request(small[i]).dump();
    {
      ScopedSpan span("util.json_parse", i);
      const Json parsed = Json::parse(frame);
    }
    ff::service::CampaignInfo info;
    info.name = small[i].name;
    info.state = "running";
    info.run_count = small[i].runs;
    Json reply = ff::service::ok_reply(static_cast<int64_t>(i));
    reply["campaign"] = info.to_json();
    ScopedSpan span("util.json_dump", i);
    const std::string text = reply.dump();
  }

  // lint + cheetah: manifest parse, preflight, dense endpoint create and
  // finalize, at daemon_small sizes.
  ff::lint::WorkspaceAnalyzer analyzer;
  analyzer.engine.register_model(
      {"gwas-paste", ff::gwas::paste_model_schema(), ff::gwas::make_paste_generator()});
  ff::cheetah::CampaignEndpoint::CreateOptions create_options;
  create_options.lint = false;
  create_options.sparse_above_runs = ff::savanna::kInlineRunListMax;
  for (size_t i = 0; i < small.size(); ++i) {
    const Json manifest = manifest_for(small[i]);
    std::optional<ff::cheetah::Campaign> campaign;
    {
      ScopedSpan span("cheetah.manifest_parse", i);
      campaign.emplace(ff::cheetah::Campaign::from_json(manifest));
    }
    {
      ScopedSpan span("lint.preflight", i);
      analyzer.lint_manifest_cached(campaign->to_json(),
                                    dir + "/" + small[i].name + "/.campaign/manifest.json");
    }
    std::optional<ff::cheetah::CampaignEndpoint> endpoint;
    {
      ScopedSpan span("cheetah.endpoint_create_dense", i);
      endpoint.emplace(
          ff::cheetah::CampaignEndpoint::create(*campaign, dir, create_options));
    }
    // savanna: journal create (inline ids), one slice with and without a
    // journal, then the endpoint write-back the daemon does at finalize.
    const std::vector<ff::sim::TaskSpec> tasks = tasks_for(small[i], *campaign);
    std::vector<std::string> ids;
    for (const ff::sim::TaskSpec& task : tasks) ids.push_back(task.id);
    ff::savanna::CampaignJournal journal;
    {
      ScopedSpan span("savanna.journal_create_inline", i);
      journal = ff::savanna::CampaignJournal::create(endpoint->journal_path(),
                                                     small[i].name, ids);
    }
    const ff::savanna::CampaignRunOptions options = run_options_for(small[i]);
    ff::savanna::RunTracker tracker;
    {
      ff::sim::Simulation sim;
      ScopedSpan span("savanna.slice", i);
      ff::savanna::run_with_resubmission(sim, tasks, options, &tracker, &journal);
    }
    {
      ff::sim::Simulation sim;
      ff::savanna::RunTracker unjournaled;
      ScopedSpan span("savanna.slice_nojournal", i);
      ff::savanna::run_with_resubmission(sim, tasks, options, &unjournaled, nullptr);
    }
    journal.close();
    {
      ScopedSpan span("cheetah.endpoint_finalize_dense", i);
      for (const ff::sim::TaskSpec& task : tasks) {
        endpoint->mark(task.id, tracker.status(task.id).state == "done"
                                    ? ff::cheetah::RunState::Done
                                    : ff::cheetah::RunState::Failed);
      }
      endpoint->save();
    }
    if (i == 0) {
      // Append cost of the record this slice committed, at the default
      // policy (write + fsync per record) and at daemon_large's group
      // commit (a write + fsync per batch, included in the mean).
      const auto replay = ff::savanna::CampaignJournal::replay(endpoint->journal_path());
      if (replay.allocations.empty()) {
        out.problem("probe slice journaled no allocation");
        continue;
      }
      Json record = replay.allocations.front();
      record.as_object().erase("kind");
      record.as_object().erase("index");
      const size_t large_group = run_options_for(large).journal.group_commit;
      for (const size_t group : {size_t{1}, large_group}) {
        auto append = ff::savanna::CampaignJournal::create(
            dir + "/append-" + std::to_string(group) + ".jsonl", "append", ids);
        append.set_group_commit(group);
        for (uint64_t k = 0; k < 4 * large_group; ++k) {
          ScopedSpan span(group == 1 ? "savanna.journal_append_gc1"
                                     : "savanna.journal_append_large",
                          k);
          append.append_allocation(record);
        }
        append.close();
      }
    }
  }

  // The large path: sweep walk, sparse endpoint, run-set journal, one
  // slice at daemon_large's policy, and the post-slice attempt scan.
  {
    const ff::cheetah::Campaign campaign =
        ff::cheetah::Campaign::from_json(manifest_for(large));
    const ff::cheetah::SweepGroup& group = campaign.groups().front();
    std::vector<double> walk_ns;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span("cheetah.sweep_walk", static_cast<uint64_t>(rep));
      const double t0 = now_s();
      ff::savanna::RunSetDigest digest;
      std::vector<ff::sim::TaskSpec> tasks;
      tasks.reserve(group.run_count());
      group.for_each_run([&](const ff::cheetah::RunSpec& run) {
        digest.add(run.id);
        ff::sim::TaskSpec task;
        task.id = run.id;
        tasks.push_back(std::move(task));
      });
      walk_ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(tasks.size()));
    }
    out.set("cheetah.sweep_walk_ns_per_run", ff::median(walk_ns), "ns");

    std::optional<ff::cheetah::CampaignEndpoint> endpoint;
    {
      ScopedSpan span("cheetah.endpoint_create_sparse", 0);
      endpoint.emplace(ff::cheetah::CampaignEndpoint::create(campaign, dir, create_options));
    }
    const std::vector<ff::sim::TaskSpec> tasks = tasks_for(large, campaign);
    ff::savanna::RunSetDigest digest;
    for (const ff::sim::TaskSpec& task : tasks) digest.add(task.id);
    ff::savanna::CampaignJournal::RunSetSummary run_set{digest.count(), digest.hex()};
    ff::savanna::CampaignJournal journal;
    {
      ScopedSpan span("savanna.journal_create_summary", 0);
      journal = ff::savanna::CampaignJournal::create(endpoint->journal_path(),
                                                     large.name, run_set);
    }
    const ff::savanna::CampaignRunOptions options = run_options_for(large);
    journal.set_group_commit(options.journal.group_commit);
    ff::savanna::RunTracker tracker;
    ff::sim::Simulation sim;
    {
      ScopedSpan span("savanna.slice_large", 0);
      ff::savanna::run_with_resubmission(sim, tasks, options, &tracker, &journal);
    }
    journal.close();
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span("savanna.attempt_scan", static_cast<uint64_t>(rep));
      size_t attempts = 0;
      for (const ff::sim::TaskSpec& task : tasks) {
        if (tracker.has_run(task.id)) attempts += tracker.attempts(task.id);
      }
      if (attempts == 0) out.problem("attempt scan found no attempts");
    }
    {
      ScopedSpan span("cheetah.endpoint_finalize_sparse", 0);
      for (const ff::sim::TaskSpec& task : tasks) {
        if (!tracker.has_run(task.id)) continue;
        endpoint->mark(task.id, tracker.status(task.id).state == "done"
                                    ? ff::cheetah::RunState::Done
                                    : ff::cheetah::RunState::Killed);
      }
      endpoint->save();
    }
  }

  // service: in-process dispatch of the same submit frames, then the
  // uncontended status read.
  {
    ff::service::ServiceCore core(
        {.root = dir + "/inproc", .workers = 2, .max_campaigns_per_session = kQuota});
    core.analyzer().engine.register_model(
        {"gwas-paste", ff::gwas::paste_model_schema(), ff::gwas::make_paste_generator()});
    ff::service::Dispatcher dispatcher(core);
    ff::service::Dispatcher::Session session(dispatcher);
    for (size_t i = 0; i < small.size(); ++i) {
      CampaignInput input = small[i];
      input.name += "-inproc";
      const Json request = submit_request(input);
      Json reply;
      {
        ScopedSpan span("service.dispatch_submit", i);
        reply = session.handle(request);
      }
      if (!reply.get_or("ok", false)) out.problem("in-process submit refused: " + reply.dump());
    }
    core.drain();
    const std::string name = small.front().name + "-inproc";
    for (uint64_t k = 0; k < 2000; ++k) {
      ScopedSpan span("service.status_inproc", k);
      const ff::service::CampaignInfo info = core.info(name);
      if (info.state.empty()) out.problem("empty status");
    }
    core.stop();
  }
}

}  // namespace perfbench
