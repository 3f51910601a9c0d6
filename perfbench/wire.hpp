// The benchmark's fairflowd client: newline-delimited JSON over a Unix
// socket, read in buffered chunks (never one recv per byte), with reply
// frames (matched by "id") kept apart from pushed `subscribe` event frames
// (which carry a "stream" key and no id).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace perfbench {

/// Splits a byte stream into frames at '\n'. Bytes of an unfinished frame
/// stay buffered until the rest arrives; one feed may complete several.
class FrameReader {
 public:
  void feed(const char* data, size_t size);
  /// Pop the next complete frame (delimiter excluded). False when none.
  bool next(std::string& frame);
  size_t buffered() const noexcept { return buffer_.size() - start_; }

 private:
  std::string buffer_;
  size_t start_ = 0;  // first byte not yet returned
};

/// True when a decoded frame is a pushed event rather than a reply.
inline bool is_event_frame(const ff::Json& frame) {
  return frame.is_object() && frame.contains("stream");
}

class WireClient {
 public:
  /// Connect to the daemon's Unix socket; throws std::runtime_error.
  explicit WireClient(const std::string& socket_path);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Assign the next id to `request`, send it, and return the id. Safe to
  /// call from one thread while another thread reads.
  int64_t send(ff::Json request);
  /// Send an already-encoded frame (with its trailing newline).
  void send_raw(std::string_view frame);

  /// Read the next frame (blocking). Returns false on EOF or error.
  bool read_frame(ff::Json& frame);
  /// Read until the reply with `id` arrives, skipping event frames and
  /// other replies. Throws on EOF.
  ff::Json await_reply(int64_t id);
  /// send + await_reply.
  ff::Json call(ff::Json request);

  /// Requests sent, and replies that came back with ok = false.
  uint64_t requests() const noexcept { return requests_.load(); }
  uint64_t error_replies() const noexcept { return error_replies_.load(); }

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::mutex send_mutex_;
  std::atomic<int64_t> next_id_{1};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> error_replies_{0};
};

}  // namespace perfbench
