#include "wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

void FrameReader::feed(const char* data, size_t size) {
  // Reclaim consumed bytes before growing, so the buffer stays about one
  // chunk plus one partial frame long.
  if (start_ > 0 && start_ == buffer_.size()) {
    buffer_.clear();
    start_ = 0;
  } else if (start_ > 65536) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameReader::next(std::string& frame) {
  const size_t end = buffer_.find('\n', start_);
  if (end == std::string::npos) return false;
  frame.assign(buffer_, start_, end - start_);
  start_ = end + 1;
  return true;
}

WireClient::WireClient(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect to " + socket_path + " failed");
  }
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

void WireClient::send_raw(std::string_view frame) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send to fairflowd failed");
    sent += static_cast<size_t>(n);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

int64_t WireClient::send(ff::Json request) {
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request["id"] = id;
  std::string frame = request.dump();
  frame.push_back('\n');
  send_raw(frame);
  return id;
}

bool WireClient::read_frame(ff::Json& frame) {
  std::string line;
  while (!reader_.next(line)) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    reader_.feed(chunk, static_cast<size_t>(n));
  }
  frame = ff::Json::parse(line);
  if (!is_event_frame(frame) && !frame.get_or("ok", false)) {
    error_replies_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

ff::Json WireClient::await_reply(int64_t id) {
  ff::Json frame;
  for (;;) {
    if (!read_frame(frame)) throw std::runtime_error("fairflowd closed the connection");
    if (!is_event_frame(frame) && frame.get_or("id", int64_t{0}) == id) return frame;
  }
}

ff::Json WireClient::call(ff::Json request) { return await_reply(send(std::move(request))); }

}  // namespace perfbench
