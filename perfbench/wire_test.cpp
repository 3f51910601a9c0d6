// Test of the benchmark's wire client framing: a frame split across reads,
// two frames in one read, and reply frames told apart from pushed events.
// Exits non-zero on the first failed check.

#include <cstdio>
#include <string>

#include "util/json.hpp"
#include "wire.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void split_frame_across_reads() {
  perfbench::FrameReader reader;
  std::string frame;
  reader.feed("{\"id\":1,\"ok\"", 12);
  check(!reader.next(frame), "no frame before its newline arrives");
  reader.feed(":true}", 6);
  check(!reader.next(frame), "still no frame without the newline");
  reader.feed("\n", 1);
  check(reader.next(frame), "frame completes on the newline");
  check(frame == "{\"id\":1,\"ok\":true}", "split frame reassembled exactly");
  check(!reader.next(frame), "nothing after the one frame");
  check(reader.buffered() == 0, "no bytes left over");
}

void two_frames_in_one_read() {
  perfbench::FrameReader reader;
  const std::string bytes =
      "{\"id\":2,\"ok\":true}\n{\"stream\":\"trace\",\"campaign\":\"c\",\"seq\":1}\n{\"id\":3";
  reader.feed(bytes.data(), bytes.size());
  std::string first;
  std::string second;
  std::string third;
  check(reader.next(first), "first frame of the read");
  check(reader.next(second), "second frame of the same read");
  check(!reader.next(third), "third frame is incomplete");
  check(reader.buffered() == 7, "partial third frame stays buffered");
  reader.feed(",\"ok\":false}\n", 13);
  check(reader.next(third), "third frame completes with the next read");

  const ff::Json reply = ff::Json::parse(first);
  const ff::Json event = ff::Json::parse(second);
  const ff::Json late = ff::Json::parse(third);
  check(!perfbench::is_event_frame(reply), "a reply is not an event");
  check(perfbench::is_event_frame(event), "a frame with \"stream\" is an event");
  check(reply.get_or("id", int64_t{0}) == 2, "reply id survives");
  check(late.get_or("id", int64_t{0}) == 3 && !late.get_or("ok", true),
        "reply split after a complete pair decodes");
}

void many_frames_across_many_reads() {
  // Frames fed in 5-byte reads: every frame comes out once, in order.
  std::string bytes;
  for (int i = 0; i < 1000; ++i) bytes += "{\"id\":" + std::to_string(i) + "}\n";
  perfbench::FrameReader reader;
  std::string frame;
  int next = 0;
  for (size_t at = 0; at < bytes.size(); at += 5) {
    reader.feed(bytes.data() + at, std::min<size_t>(5, bytes.size() - at));
    while (reader.next(frame)) {
      check(ff::Json::parse(frame).get_or("id", int64_t{-1}) == next, "frames in order");
      ++next;
    }
  }
  check(next == 1000, "every frame came out");
}

}  // namespace

int main() {
  split_frame_across_reads();
  two_frames_in_one_read();
  many_frames_across_many_reads();
  if (failures == 0) std::printf("perfbench_wire_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
