// Streaming monitor: the headline guarantee that a monitor run over a
// complete capture produces exactly the verdicts replay_capture() computes
// on the parsed file (one detector implementation, two front-ends), plus
// the streaming semantics batch replay does not have — exactly-once
// delivery from a growing journal, window/alert emission, shard-count
// invariance, and the skip statistics surfaced through the tail reader.
//
// All tests run against the committed golden capture fixture
// (tests/data/golden_capture.{jsonl,pcap}): seed-7 NAV-inflation scenario,
// station 3 inflating CTS NAVs by 31 ms, vantage station 0.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/capture/capture_reader.h"
#include "src/capture/capture_stream.h"
#include "src/capture/capture_writer.h"
#include "src/capture/replay.h"
#include "src/monitor/driver.h"
#include "src/monitor/engine.h"

namespace g80211 {
namespace {

#ifndef G80211_TEST_DATA_DIR
#define G80211_TEST_DATA_DIR "tests/data"
#endif

std::string golden_jsonl() {
  return std::string(G80211_TEST_DATA_DIR) + "/golden_capture.jsonl";
}
std::string golden_pcap() {
  return std::string(G80211_TEST_DATA_DIR) + "/golden_capture.pcap";
}

// Scratch files go under the system temp dir (unique per process), never
// the working directory — running the binary from a source checkout must
// not litter the tree.
std::string artifact(const char* name) {
  static const std::filesystem::path dir = [] {
    std::filesystem::path d =
        std::filesystem::temp_directory_path() /
        ("g80211_monitor_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(d);
    return d;
  }();
  return (dir / name).string();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void append(const std::string& path, const std::uint8_t* data,
            std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(len));
}

}  // namespace

// --- monitor vs. replay -------------------------------------------------------

TEST(StreamMonitor, MatchesReplayOnTheGoldenFixture) {
  const Capture cap = read_capture(golden_jsonl());
  ASSERT_TRUE(cap.has_params);

  MonitorConfig cfg;
  cfg.window = milliseconds(10);
  StreamMonitor monitor(cap.params, cap.owner, cfg);
  for (const CapturedFrame& f : cap.frames) monitor.step(f);
  monitor.finalize(cap.end_time);

  // The whole point: the streaming front-end ends with exactly the verdicts
  // the one-shot replay computes — every counter, every per-subject vector.
  const ReplayResult offline = replay_capture(cap);
  EXPECT_EQ(monitor.verdicts(cap.end_time), offline);
  EXPECT_EQ(monitor.frames(), static_cast<std::int64_t>(cap.frames.size()));

  // And the fixture's attack is visible in the stream output: station 3's
  // NAV inflation raises exactly one alert (edge-triggered), while every
  // window reports the cumulative count (level-triggered).
  const std::vector<Alert> alerts = monitor.drain_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, Alert::Kind::kNavInflation);
  EXPECT_EQ(alerts[0].subject, 3);
  EXPECT_GT(alerts[0].evidence, 0);
  EXPECT_GT(offline.nav_detections, 0);
}

TEST(StreamMonitor, WindowSemantics) {
  const Capture cap = read_capture(golden_jsonl());
  MonitorConfig cfg;
  cfg.window = milliseconds(10);
  StreamMonitor monitor(cap.params, cap.owner, cfg);
  for (const CapturedFrame& f : cap.frames) monitor.step(f);
  monitor.finalize(cap.end_time);

  const std::vector<WindowRecord> windows = monitor.drain_windows();
  ASSERT_GT(windows.size(), 2u);

  std::int64_t total = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowRecord& w = windows[i];
    // Windows are aligned to multiples of the window length; only the
    // trailing partial window (closed at the horizon) may end off-grid.
    EXPECT_EQ(w.start % cfg.window, 0);
    if (i + 1 < windows.size()) {
      EXPECT_EQ(w.end, w.start + cfg.window);
      // Counters are cumulative: never decreasing across windows.
      EXPECT_LE(w.nav_detections, windows[i + 1].nav_detections);
    } else {
      EXPECT_EQ(w.end, cap.end_time);
    }
    if (i > 0) {
      EXPECT_GE(w.start, windows[i - 1].end);
    }
    EXPECT_GT(w.frames, 0) << "empty windows must close silently";
    total += w.frames;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(cap.frames.size()));
  // The final window carries the final cumulative verdict.
  const ReplayResult offline = replay_capture(cap);
  EXPECT_EQ(windows.back().nav_detections, offline.nav_detections);
}

// --- tailing a growing journal ------------------------------------------------

TEST(CaptureStream, DeliversAChunkedJournalExactlyOnce) {
  // Re-write the golden journal a few bytes at a time — at every chunk size
  // from 1 to 64, so appends end at every offset within a line — polling
  // after each append. Every record must come out exactly once, in order,
  // identical to the one-shot reader: the line scan resumes mid-line, and
  // no parsed view outlives the buffer it points into when consumed bytes
  // are compacted away.
  const std::vector<std::uint8_t> bytes = slurp(golden_jsonl());
  const Capture expect = read_capture(golden_jsonl());
  const std::string expect_header =
      JsonlWriter::header_line(expect.owner, expect.params);

  for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
    const std::string path = artifact("chunked.jsonl");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    CaptureStreamReader reader(path);
    std::vector<CapturedFrame> frames;
    EXPECT_EQ(reader.poll(frames), 0u);  // empty file: wait, don't fail
    EXPECT_FALSE(reader.header_ready());

    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      const std::size_t n = std::min(chunk, bytes.size() - off);
      out.write(reinterpret_cast<const char*>(bytes.data() + off),
                static_cast<std::streamsize>(n));
      out.flush();
      reader.poll(frames);
    }

    SCOPED_TRACE("chunk " + std::to_string(chunk));
    EXPECT_TRUE(reader.header_ready());
    EXPECT_TRUE(reader.has_params());
    ASSERT_TRUE(reader.finished());
    EXPECT_EQ(JsonlWriter::header_line(reader.owner(), reader.params()),
              expect_header);
    EXPECT_EQ(reader.end_time(), expect.end_time);
    EXPECT_EQ(reader.pending_bytes(), 0u);
    ASSERT_EQ(frames, expect.frames);
  }
}

TEST(CaptureStream, SurfacesPcapSkipStatistics) {
  // Same doctored fixture as the one-shot reader test: first record's Frame
  // Control byte turned into a beacon. The tail reader reports the same
  // count and the same absolute offset of the skipped record.
  std::vector<std::uint8_t> bytes = slurp(golden_pcap());
  ASSERT_GT(bytes.size(), 52u);
  bytes[24 + 16 + 11] = 0x80;

  const std::string path = artifact("skip.pcap");
  std::filesystem::remove(path);
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  CaptureStreamReader reader(path);
  std::vector<CapturedFrame> frames;
  append(path, bytes.data(), bytes.size());
  reader.poll(frames);

  EXPECT_TRUE(reader.header_ready());
  EXPECT_FALSE(reader.has_params());
  EXPECT_FALSE(reader.finished());  // pcap has no footer
  EXPECT_EQ(reader.skipped_unknown(), 1);
  EXPECT_EQ(reader.first_skipped_offset(), 24);
  EXPECT_EQ(frames.size(), read_capture(golden_pcap()).frames.size() - 1);
}

TEST(CaptureStream, DeliversAChunkedPcapExactlyOnce) {
  // The pcap counterpart of the chunked journal test, on the doctored
  // fixture above (one skipped record): appends end inside the file
  // header, inside record headers and inside record bodies. The tail
  // reader must wait at each, then report exactly what the one-shot
  // parser does: frames, skip count, absolute skip offset and horizon.
  std::vector<std::uint8_t> bytes = slurp(golden_pcap());
  ASSERT_GT(bytes.size(), 52u);
  bytes[24 + 16 + 11] = 0x80;
  const Capture expect = parse_pcap(bytes);
  ASSERT_EQ(expect.skipped_unknown, 1);

  for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
    const std::string path = artifact("chunked.pcap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    CaptureStreamReader reader(path);
    std::vector<CapturedFrame> frames;
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      const std::size_t n = std::min(chunk, bytes.size() - off);
      out.write(reinterpret_cast<const char*>(bytes.data() + off),
                static_cast<std::streamsize>(n));
      out.flush();
      reader.poll(frames);
    }

    SCOPED_TRACE("chunk " + std::to_string(chunk));
    EXPECT_TRUE(reader.header_ready());
    EXPECT_FALSE(reader.finished());
    EXPECT_EQ(reader.skipped_unknown(), expect.skipped_unknown);
    EXPECT_EQ(reader.first_skipped_offset(), expect.first_skipped_offset);
    EXPECT_EQ(reader.end_time(), expect.end_time);
    EXPECT_EQ(reader.pending_bytes(), 0u);
    ASSERT_EQ(frames, expect.frames);
  }
}

// --- the multi-stream driver --------------------------------------------------

TEST(MonitorDriver, MatchesReplayAndIsShardCountInvariant) {
  const Capture cap = read_capture(golden_jsonl());
  const ReplayResult offline = replay_capture(cap);
  const std::vector<std::string> paths = {golden_jsonl(), golden_jsonl(),
                                          golden_jsonl()};

  auto run = [&](int shards) {
    MonitorOptions opts;
    opts.config.window = milliseconds(25);
    opts.shards = shards;
    MonitorDriver driver(opts, paths);
    driver.drain();
    return std::tuple{driver.verdicts(0), driver.verdicts(1),
                      driver.verdicts(2), driver.drain_windows(),
                      driver.drain_alerts()};
  };

  const auto one = run(1);
  const auto three = run(3);

  // Stream pinning makes the result bit-identical for any shard count...
  EXPECT_EQ(std::get<0>(one), std::get<0>(three));
  EXPECT_EQ(std::get<3>(one).size(), std::get<3>(three).size());
  for (std::size_t i = 0; i < std::get<3>(one).size(); ++i) {
    EXPECT_EQ(std::get<3>(one)[i].stream, std::get<3>(three)[i].stream);
    EXPECT_EQ(std::get<3>(one)[i].window, std::get<3>(three)[i].window);
  }
  ASSERT_EQ(std::get<4>(one).size(), std::get<4>(three).size());
  for (std::size_t i = 0; i < std::get<4>(one).size(); ++i) {
    EXPECT_EQ(std::get<4>(one)[i].stream, std::get<4>(three)[i].stream);
    EXPECT_EQ(std::get<4>(one)[i].alert, std::get<4>(three)[i].alert);
  }
  // ...and every stream independently reproduces the one-shot replay.
  EXPECT_EQ(std::get<0>(one), offline);
  EXPECT_EQ(std::get<1>(one), offline);
  EXPECT_EQ(std::get<2>(one), offline);
  // One nav-inflation alert per stream, merged in (time, stream) order.
  ASSERT_EQ(std::get<4>(one).size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(std::get<4>(one)[static_cast<std::size_t>(s)].stream, s);
    EXPECT_EQ(std::get<4>(one)[static_cast<std::size_t>(s)].alert.subject, 3);
  }
}

TEST(MonitorDriver, FollowsAGrowingJournalToTheFooter) {
  // Follow mode without the sleeps: write the journal in three slices with
  // a driver pass after each. The driver must report unfinished (and
  // consume what is there) until the footer lands, then finalize to the
  // same verdicts as batch replay.
  const std::vector<std::uint8_t> bytes = slurp(golden_jsonl());
  const std::string path = artifact("follow.jsonl");
  std::filesystem::remove(path);
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }

  MonitorOptions opts;
  opts.config.window = milliseconds(10);
  MonitorDriver driver(opts, {path});

  const std::size_t third = bytes.size() / 3;
  append(path, bytes.data(), third);
  driver.pass();
  EXPECT_FALSE(driver.finished());
  EXPECT_GT(driver.status(0).frames, 0);

  append(path, bytes.data() + third, third);
  driver.pass();
  EXPECT_FALSE(driver.finished());

  append(path, bytes.data() + 2 * third, bytes.size() - 2 * third);
  while (driver.pass() > 0) {
  }
  EXPECT_TRUE(driver.finished());
  driver.finalize();

  const Capture cap = read_capture(golden_jsonl());
  EXPECT_EQ(driver.status(0).frames, static_cast<std::int64_t>(cap.frames.size()));
  EXPECT_EQ(driver.status(0).end_time, cap.end_time);
  EXPECT_EQ(driver.verdicts(0), replay_capture(cap));
}

TEST(MonitorDriver, RejectsPcapAndTruncatedInput) {
  // pcap drops the ticks and ground truth the detectors need: the driver
  // refuses it as soon as the magic bytes are read, naming the format it
  // does accept.
  {
    MonitorDriver driver(MonitorOptions{}, {golden_pcap()});
    try {
      driver.drain();
      FAIL() << "pcap input must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("JSONL"), std::string::npos)
          << e.what();
    }
  }
  // A journal that ends without its footer is a truncated capture.
  {
    const std::vector<std::uint8_t> bytes = slurp(golden_jsonl());
    const std::string path = artifact("truncated.jsonl");
    std::filesystem::remove(path);
    { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
    append(path, bytes.data(), bytes.size() / 2);
    MonitorDriver driver(MonitorOptions{}, {path});
    EXPECT_THROW(driver.drain(), std::runtime_error);
  }
}

TEST(MonitorDriver, RejectsAGrowingPcapOnTheFirstPass) {
  // Follow-mode regression: a pcap being tailed used to park the driver in
  // the poll loop forever — the reader never reached header_ready (so the
  // old params check never fired) and pcap never finishes. The magic bytes
  // alone, with the file header still unwritten, must now fail the very
  // first pass with the "requires JSONL journals" error instead of
  // consuming nothing silently.
  const std::vector<std::uint8_t> bytes = slurp(golden_pcap());
  ASSERT_GT(bytes.size(), 12u);
  const std::string path = artifact("partial.pcap");
  std::filesystem::remove(path);
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  append(path, bytes.data(), 12);  // magic + a few header bytes, no records

  MonitorDriver driver(MonitorOptions{}, {path});
  try {
    driver.pass();
    FAIL() << "partial pcap must be rejected on the first pass";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("requires JSONL journals"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace g80211
