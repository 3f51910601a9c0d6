#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "util/stats.hpp"
#include "wire.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void sleep_until_s(double deadline) {
  // Sleep most of the way, then yield for the last stretch: a sleep can
  // overshoot by tens of microseconds, a yield loop burns a core.
  constexpr double kSpin_s = 200e-6;
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0) return;
    if (left > kSpin_s) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - kSpin_s));
    } else {
      std::this_thread::yield();
    }
  }
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::open(const char* name, uint64_t id, int64_t parent) {
  if (!enabled_) return -1;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, start, -1});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::close(int64_t index) {
  if (index < 0) return;
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_s = end;
}

int64_t SpanLog::add(const char* name, uint64_t id, int64_t parent,
                     double start_s, double end_s) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, start_s, end_s});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_s >= span.start_s && name == span.name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"i\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  i, span.name, static_cast<unsigned long long>(span.id),
                  static_cast<long long>(span.parent), span.start_s,
                  span.end_s);
    out << line;
  }
}

double Outcome::get(const std::string& name) const {
  const auto it = metrics.find(name);
  if (it == metrics.end()) throw std::runtime_error("no value for metric " + name);
  return it->second.value;
}

void Outcome::problem(std::string text) {
  if (problems.size() < 20) problems.push_back(std::move(text));
  ++failed;
}

DaemonProcess::DaemonProcess(const Context& context, const std::string& dir,
                             size_t quota)
    : socket_(dir + "/fairflowd.sock") {
  const std::string root = dir + "/campaigns";
  fs::create_directories(root);
  const std::string log = dir + "/fairflowd.log";
  const std::string quota_text = std::to_string(quota);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Never outlive the benchmark, even if it dies without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execl(context.daemon_exe.c_str(), context.daemon_exe.c_str(), "--socket",
            socket_.c_str(), "--root", root.c_str(), "--quota",
            quota_text.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Ready means a client can connect and get a pong.
  const double give_up = now_s() + 20;
  while (now_s() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("fairflowd exited during start-up; see " + log);
    }
    try {
      WireClient probe(socket_);
      if (probe.call(ff::Json::object({{"cmd", "ping"}})).get_or("ok", false)) {
        return;
      }
    } catch (const std::exception&) {
      // not listening yet
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop();
  throw std::runtime_error("fairflowd did not become ready");
}

DaemonProcess::~DaemonProcess() { stop(); }

int DaemonProcess::stop() {
  if (pid_ < 0) return -1;
  try {
    WireClient client(socket_);
    client.call(ff::Json::object({{"cmd", "shutdown"}}));
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  const double give_up = now_s() + 30;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double measure_fsync_us(const std::string& dir, int samples) {
  const std::string path = dir + "/fsync.probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const std::string block(4096, 'x');
  std::vector<double> times;
  for (int i = 0; i < samples; ++i) {
    const double start = now_s();
    if (::write(fd, block.data(), block.size()) < 0 || ::fsync(fd) != 0) break;
    times.push_back((now_s() - start) * 1e6);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return ff::median(times);
}

double measure_tmp_fsync_rename_us(const std::string& dir, int samples) {
  const std::string tmp = dir + "/rename.probe.tmp";
  const std::string path = dir + "/rename.probe";
  const std::string block(1024, 'y');
  std::vector<double> times;
  for (int i = 0; i < samples; ++i) {
    const double start = now_s();
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) break;
    const bool ok = ::write(fd, block.data(), block.size()) >= 0 && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) break;
    times.push_back((now_s() - start) * 1e6);
  }
  ::unlink(path.c_str());
  return ff::median(times);
}

ff::Json host_stamp(const Context& context) {
  ff::Json stamp = ff::Json::object();
  stamp["nproc"] = static_cast<int64_t>(context.nproc);
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  stamp["compiler"] = PERFBENCH_COMPILER;
  stamp["fsync_us"] = measure_fsync_us(context.workdir, 40);
  stamp["tmp_fsync_rename_us"] = measure_tmp_fsync_rename_us(context.workdir, 40);
  return stamp;
}

}  // namespace perfbench
