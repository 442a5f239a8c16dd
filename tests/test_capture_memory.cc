// JSONL journal allocation contract: parsing a record line allocates
// nothing on the heap. The streaming monitor parses every frame of every
// journal it follows, so a per-record allocation is paid once per frame
// on the air.
//
// This file is its own test binary (every tests/*.cc is), so it can
// replace the global allocator: operator new counts its calls while the
// counter is armed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/capture/format_detail.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) g_allocations.fetch_add(1);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

#ifndef G80211_TEST_DATA_DIR
#define G80211_TEST_DATA_DIR "tests/data"
#endif

using namespace g80211;

// Every line after the header of the committed golden journal: its frame
// records (RTS, CTS, DATA and ACK) and its footer.
std::vector<std::string> golden_record_lines() {
  std::ifstream in(std::string(G80211_TEST_DATA_DIR) + "/golden_capture.jsonl");
  EXPECT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JsonlMemory, ParsingARecordAllocatesNothing) {
  const std::vector<std::string> lines = golden_record_lines();
  ASSERT_GT(lines.size(), 100u);

  CapturedFrame f;
  Time end_time = 0;
  // Warm-up: one line, so lazily initialised library state is not charged.
  capture_detail::parse_jsonl_record(lines.front(), f, end_time);

  int frames = 0;
  g_allocations.store(0);
  g_armed.store(true);
  for (const std::string& line : lines) {
    if (capture_detail::parse_jsonl_record(line, f, end_time) ==
        capture_detail::JsonlLine::kFrame) {
      ++frames;
    }
  }
  g_armed.store(false);

  EXPECT_EQ(frames, static_cast<int>(lines.size()) - 1);
  EXPECT_EQ(g_allocations.load(), 0)
      << "heap allocations over " << lines.size() << " record lines";
}

}  // namespace
