// Capture subsystem: pcap/JSONL round trips, strict-parser rejection of
// corrupt files, the committed golden fixture, and the headline guarantee
// of src/capture/replay.h — offline replay of a recorded run reproduces
// the live GRC detector verdicts exactly (same flagged stations, same
// counts) for NAV inflation, ACK spoofing, and fake-ACK misbehavior.
//
// All capture files are written under capture_test_artifacts/ in the test
// working directory; CI uploads that directory when the suite fails, so a
// red run ships the capture that broke it. Set G80211_REGEN_GOLDEN=1 to
// rewrite the committed fixtures in G80211_TEST_DATA_DIR instead of
// comparing against them (do this only for an intended format change, and
// say so in the commit message).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/capture/capture_reader.h"
#include "src/capture/capture_writer.h"
#include "src/capture/replay.h"
#include "src/detect/backoff_monitor.h"
#include "src/detect/cross_layer_detector.h"
#include "src/detect/fake_ack_detector.h"
#include "src/detect/nav_validator.h"
#include "src/detect/spoof_detector.h"
#include "src/greedy/nav_inflation.h"
#include "src/phy/error_model.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

namespace g80211 {
namespace {

// ctest runs every test case as its own process, in parallel, so each
// case writes to files named after itself: two cases sharing a stem would
// clobber each other's captures mid-read.
std::string stem_for(const ::testing::TestInfo& info) {
  return std::string("capture_test_artifacts/") + info.test_suite_name() +
         "." + info.name();
}

std::string artifact_stem() {
  std::filesystem::create_directories("capture_test_artifacts");
  return stem_for(*::testing::UnitTest::GetInstance()->current_test_info());
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::string slurp_text(const std::string& path) {
  const auto bytes = slurp(path);
  return std::string(bytes.begin(), bytes.end());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Re-serialise a parsed capture with the writers' pure serialisation
// primitives (what CaptureWriter streams, byte for byte).
std::vector<std::uint8_t> reserialize_pcap(const Capture& cap) {
  std::vector<std::uint8_t> out = PcapWriter::serialize_header();
  for (const CapturedFrame& f : cap.frames) {
    const auto rec = PcapWriter::serialize_record(f);
    out.insert(out.end(), rec.begin(), rec.end());
  }
  return out;
}

std::string reserialize_jsonl(const Capture& cap) {
  std::string out = JsonlWriter::header_line(cap.owner, cap.params) + "\n";
  for (const CapturedFrame& f : cap.frames) {
    out += JsonlWriter::frame_line(f) + "\n";
  }
  out += JsonlWriter::footer_line(cap.end_time) + "\n";
  return out;
}

// --- fixed scenarios ----------------------------------------------------------
//
// Each returns with the capture files written and closed; configs are fully
// explicit so G80211_QUICK (set by ctest) has no effect.

struct NavLive {
  std::int64_t validated = 0;
  std::int64_t detections = 0;
  std::map<int, std::int64_t> by_node;
};

// Two UDP pairs, the second receiver inflating its CTS NAV by 31 ms
// (grc_defense scenario 1). Vantage and NAV validator: the victim sender.
NavLive run_nav_scenario(const std::string& stem, std::uint64_t seed,
                         Time measure, bool with_validator) {
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = measure;
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(ns, nr);
  sim.add_udp_flow(gs, gr);
  sim.make_nav_inflator(gr, NavFrameMask::cts_only(), milliseconds(31));

  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  NavValidator validator(sim.scheduler(), sim.params());
  if (with_validator) validator.attach(ns.mac());

  sim.run();
  capture.close();
  return NavLive{validator.frames_validated(), validator.detections(),
                 validator.detections_by_node()};
}

}  // namespace

TEST(CaptureArtifacts, EveryTestWritesItsOwnStem) {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::set<std::string> stems;
  int tests = 0;
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    for (int j = 0; j < suite.total_test_count(); ++j) {
      const std::string stem = stem_for(*suite.GetTestInfo(j));
      EXPECT_TRUE(stems.insert(stem).second) << "shared stem " << stem;
      ++tests;
    }
  }
  EXPECT_GT(tests, 10);
}

// --- round trips --------------------------------------------------------------

TEST(CaptureRoundTrip, PcapByteExact) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 21, milliseconds(200), false);

  const std::vector<std::uint8_t> original = slurp(stem + ".pcap");
  const Capture cap = read_pcap(stem + ".pcap");
  ASSERT_GT(cap.frames.size(), 100u);
  EXPECT_EQ(cap.skipped_unknown, 0);
  EXPECT_FALSE(cap.has_params);

  // Parse -> serialise reproduces the file byte for byte...
  EXPECT_EQ(reserialize_pcap(cap), original);
  // ...and the reparse of the reserialisation is the same frame list
  // (serialisation is a fixed point after one quantisation).
  EXPECT_EQ(parse_pcap(reserialize_pcap(cap)).frames, cap.frames);
}

TEST(CaptureRoundTrip, JsonlByteExact) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 21, milliseconds(200), false);

  const std::string original = slurp_text(stem + ".jsonl");
  const Capture cap = read_jsonl(stem + ".jsonl");
  ASSERT_GT(cap.frames.size(), 100u);
  ASSERT_TRUE(cap.has_params);
  EXPECT_EQ(cap.owner, 0);  // first node added = the victim sender
  EXPECT_EQ(cap.params.slot, WifiParams::b11().slot);

  EXPECT_EQ(reserialize_jsonl(cap), original);
  const Capture again = parse_jsonl(reserialize_jsonl(cap));
  EXPECT_EQ(again.frames, cap.frames);
  EXPECT_EQ(again.owner, cap.owner);
  EXPECT_EQ(again.end_time, cap.end_time);

  // The journal carries both sides of the vantage: transmissions and
  // receptions, with exact edges.
  bool saw_tx = false, saw_rx = false;
  for (const CapturedFrame& f : cap.frames) {
    (f.tx ? saw_tx : saw_rx) = true;
    EXPECT_GE(f.end, f.start);
  }
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_rx);
}

// --- strict parsing -----------------------------------------------------------

TEST(CaptureReader, RejectsCorruptFiles) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 22, milliseconds(50), false);

  const std::vector<std::uint8_t> pcap = slurp(stem + ".pcap");
  const std::string jsonl = slurp_text(stem + ".jsonl");
  ASSERT_GT(pcap.size(), 80u);

  // pcap: wrong magic.
  {
    std::vector<std::uint8_t> bad = pcap;
    bad[0] ^= 0xff;
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // pcap: truncated mid-record.
  {
    std::vector<std::uint8_t> bad(pcap.begin(), pcap.begin() + 50);
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // pcap: an address outside the simulator's OUI scheme. The first
  // record's addr1 starts after the record header (16), radiotap (11),
  // FC (2) and Duration (2).
  {
    std::vector<std::uint8_t> bad = pcap;
    bad[24 + 16 + 11 + 4] = 0xaa;
    EXPECT_THROW(parse_pcap(bad), std::runtime_error);
  }
  // jsonl: missing footer = truncated capture.
  {
    const std::size_t cut = jsonl.rfind("{\"" + std::string(kJsonlFooterKey));
    ASSERT_NE(cut, std::string::npos);
    EXPECT_THROW(parse_jsonl(jsonl.substr(0, cut)), std::runtime_error);
  }
  // jsonl: a line that is not JSON.
  {
    std::string bad = jsonl;
    bad.insert(bad.find('\n') + 1, "not json\n");
    EXPECT_THROW(parse_jsonl(bad), std::runtime_error);
  }
  // jsonl: file that never was a capture.
  EXPECT_THROW(parse_jsonl("{\"foo\":1}\n"), std::runtime_error);
  EXPECT_THROW(parse_jsonl(""), std::runtime_error);
}

TEST(CaptureReader, SkipsUnknownPcapRecords) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 23, milliseconds(50), false);

  std::vector<std::uint8_t> bytes = slurp(stem + ".pcap");
  const Capture clean = parse_pcap(bytes);
  ASSERT_GT(clean.frames.size(), 10u);
  EXPECT_EQ(clean.first_skipped_offset, -1);

  // Rewrite the first record's Frame Control byte to a management frame
  // (a beacon): unknown to the parser, skipped and counted, not fatal.
  bytes[24 + 16 + 11] = 0x80;
  const Capture cap = parse_pcap(bytes);
  EXPECT_EQ(cap.skipped_unknown, 1);
  EXPECT_EQ(cap.frames.size(), clean.frames.size() - 1);
  // The skip statistics point at the record, not the bad byte: the first
  // record header starts right after the 24-byte pcap file header.
  EXPECT_EQ(cap.first_skipped_offset, 24);
}

TEST(CaptureReader, DispatchesByContent) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 24, milliseconds(50), false);
  EXPECT_FALSE(read_capture(stem + ".pcap").has_params);
  EXPECT_TRUE(read_capture(stem + ".jsonl").has_params);
}

TEST(Replay, RequiresTheJsonlJournal) {
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 24, milliseconds(50), false);
  const Capture pcap = read_pcap(stem + ".pcap");
  EXPECT_THROW(replay_capture(pcap), std::runtime_error);
}

// --- JSONL grammar --------------------------------------------------------------
//
// What the journal reader accepts and rejects, line by line, with the
// meaning of each "JSONL: ..." message. Each case edits one record of an
// otherwise valid journal.

namespace {

constexpr const char* kRtsRecord =
    R"({"t":"RTS","s":90000,"e":442000,"d":1624182,"ta":0,"ra":2,"tt":0,)"
    R"("sq":0,"fg":0,"mf":0,"r":0,"c":0,"cl":0,"tx":1,"rssi":0,"len":20,)"
    R"("rate":1})";

constexpr const char* kDataRecord =
    R"({"t":"DATA","s":766000,"e":1752182,"d":314000,"ta":0,"ra":2,"tt":0,)"
    R"("sq":1,"fg":0,"mf":0,"r":0,"c":0,"cl":0,"tx":1,"rssi":0,"len":1092,)"
    R"("rate":11,"fl":1,"ps":0,"pu":1,"sn":0,"dn":2,"cr":0,"pr":0})";

// `record` with its first `from` replaced by `to`.
std::string edit(std::string record, const std::string& from,
                 const std::string& to) {
  const std::size_t at = record.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) record.replace(at, from.size(), to);
  return record;
}

std::string journal_with(const std::string& record) {
  return JsonlWriter::header_line(0, WifiParams{}) + "\n" + record + "\n" +
         JsonlWriter::footer_line(seconds(1)) + "\n";
}

// The one frame of a journal holding `record`.
CapturedFrame parse_record(const std::string& record) {
  const Capture cap = parse_jsonl(journal_with(record));
  EXPECT_EQ(cap.frames.size(), 1u);
  return cap.frames.empty() ? CapturedFrame{} : cap.frames.front();
}

// The reader's error for `text`, or "" when it parses.
std::string jsonl_error(const std::string& text) {
  try {
    parse_jsonl(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string record_error(const std::string& record) {
  return jsonl_error(journal_with(record));
}

}  // namespace

TEST(JsonlGrammar, UneditedRecordsParse) {
  EXPECT_EQ(parse_record(kRtsRecord).type, FrameType::kRts);
  const CapturedFrame data = parse_record(kDataRecord);
  EXPECT_EQ(data.type, FrameType::kData);
  EXPECT_EQ(data.bytes, 1092);
  EXPECT_EQ(data.pkt_uid, 1u);
}

TEST(JsonlGrammar, LeadingPlusIsAccepted) {
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"s\":90000", "\"s\":+90000")).start,
            90000);
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":+1.5")).rssi_dbm,
            1.5);
  EXPECT_NE(record_error(edit(kRtsRecord, "\"s\":90000", "\"s\":+-90000")), "");
}

TEST(JsonlGrammar, IntegerFieldsRejectExponents) {
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"s\":90000", "\"s\":1e5")),
            "capture: JSONL: key \"s\" not an integer");
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"len\":20", "\"len\":2.0")),
            "capture: JSONL: key \"len\" not an integer");
}

TEST(JsonlGrammar, DoubleFieldsAcceptStrtodSpellings) {
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":.5")).rssi_dbm,
            0.5);
  EXPECT_TRUE(std::isnan(
      parse_record(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":nan")).rssi_dbm));
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":-inf")).rssi_dbm,
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"rate\":1", "\"rate\":5.5e0")).rate_mbps,
            5.5);
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":1e")),
            "capture: JSONL: key \"rssi\" not a number");
}

TEST(JsonlGrammar, UnknownKeysAreIgnoredButNotRepeated) {
  const std::string extra = edit(kRtsRecord, "\"s\":", "\"zz\":\"x\",\"s\":");
  EXPECT_EQ(parse_record(extra).start, 90000);
  EXPECT_EQ(record_error(edit(extra, "\"s\":", "\"zz\":1,\"s\":")),
            "capture: JSONL: duplicate key \"zz\"");
  // Keys that belong to another line kind are known, and equally unique.
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"s\":", "\"owner\":1,\"s\":")).start,
            90000);
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"s\":", "\"fl\":1,\"fl\":1,\"s\":")),
            "capture: JSONL: duplicate key \"fl\"");
}

TEST(JsonlGrammar, RepeatedKnownKeyIsRejected) {
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"e\":", "\"s\":1,\"e\":")),
            "capture: JSONL: duplicate key \"s\"");
  EXPECT_EQ(record_error(edit(kDataRecord, "\"pr\":0", "\"pr\":0,\"pu\":2")),
            "capture: JSONL: duplicate key \"pu\"");
}

TEST(JsonlGrammar, EscapesWorkInKeysAndValues) {
  // Every supported escape, in an unknown key and in its value.
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"s\":",
                              R"("a\"b\\c\nd\te":"x\"y\\z\n\t","s":)"))
                .start,
            90000);
  // Keys compare decoded: an escaped tab and a raw tab are the same key.
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"s\":", "\"a\\tb\":1,\"a\tb\":2,\"s\":")),
            "capture: JSONL: duplicate key \"a\tb\"");
  // A decoded value is what the reader sees.
  EXPECT_EQ(record_error(edit(kRtsRecord, R"("RTS")", R"("R\"TS")")),
            "capture: JSONL: unknown frame type \"R\"TS\"");
  // Any other escape throws, in a key or in a value.
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"s\":", R"("\u0041":1,"s":)")),
            "capture: JSONL: unsupported escape");
  EXPECT_EQ(record_error(edit(kRtsRecord, R"("RTS")", R"("R\/TS")")),
            "capture: JSONL: unsupported escape");
}

TEST(JsonlGrammar, MissingKeyIsNamed) {
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"len\":20,", "")),
            "capture: JSONL: missing key \"len\"");
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"t\":\"RTS\",", "")),
            "capture: JSONL: missing key \"t\"");
  // Packet keys are read only from DATA records.
  EXPECT_EQ(record_error(edit(kDataRecord, "\"pu\":1,", "")),
            "capture: JSONL: missing key \"pu\"");
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"rate\":1", "\"rate\":1,\"pu\":\"x\""))
                .type,
            FrameType::kRts);
  EXPECT_EQ(jsonl_error(edit(journal_with(kRtsRecord), "\"owner\":0,", "")),
            "capture: JSONL: missing key \"owner\"");
}

TEST(JsonlGrammar, StringsWhereNumbersBelongThrow) {
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"s\":90000", "\"s\":\"90000\"")),
            "capture: JSONL: key \"s\" not a number");
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"rssi\":0", "\"rssi\":\"0\"")),
            "capture: JSONL: key \"rssi\" not a number");
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"t\":\"RTS\"", "\"t\":5")),
            "capture: JSONL: unknown frame type \"5\"");
}

TEST(JsonlGrammar, MalformedObjectsThrow) {
  const std::pair<std::string, const char*> cases[] = {
      {std::string(kRtsRecord) + " x", "trailing content after object"},
      {std::string(kRtsRecord) + " \t", ""},
      {edit(kRtsRecord, "{", "x{"), "expected '{'"},
      {edit(kRtsRecord, "\"rate\":1}", "\"rate\":1,}"), "expected string"},
      {edit(kRtsRecord, "\"s\":", "\"s\" : \t"), ""},
      {edit(kRtsRecord, "\"s\":", "\"s\"="), "expected ':'"},
      {edit(kRtsRecord, "\"s\":90000", "\"s\":"), "expected value"},
      {edit(kRtsRecord, ",\"e\"", " \"e\""), "expected ',' or '}'"},
      {edit(kRtsRecord, "\"rate\":1}", "\"rate\":1"), "unterminated object"},
      {edit(kRtsRecord, "\"rate\":1}", "\"rate\":\"1"), "unterminated string"},
      {edit(kRtsRecord, "\"rate\":1}", "\"rate\":\"1\\"), "unterminated escape"},
      {edit(kRtsRecord, "\"s\":90000", "\"s\":null"), "expected ',' or '}'"},
  };
  for (const auto& [record, what] : cases) {
    const std::string want = *what ? std::string("capture: JSONL: ") + what : "";
    EXPECT_EQ(record_error(record), want) << record;
  }
}

TEST(JsonlGrammar, FooterAndHeaderValuesAreChecked) {
  const std::string text = journal_with(kRtsRecord);
  EXPECT_EQ(jsonl_error(edit(text, "\"g80211_capture\":1", "\"g80211_capture\":2")),
            "capture: JSONL: unsupported capture format version");
  EXPECT_EQ(jsonl_error(edit(text, "\"g80211_capture\":1,", "")),
            "capture: JSONL: not a g80211 capture (missing header line)");
  EXPECT_EQ(jsonl_error(edit(text, "\"standard\":0", "\"standard\":3")),
            "capture: JSONL: bad standard");
  EXPECT_EQ(jsonl_error(edit(text, "_end\":1000000000", "_end\":\"1\"")),
            "capture: JSONL: key \"g80211_capture_end\" not a number");
  EXPECT_EQ(parse_jsonl(text).end_time, seconds(1));
}

// --- loud limits on journal numbers -----------------------------------------------

TEST(JsonlLimits, IntFieldBeyondIntThrows) {
  // 2^32 + 1 would silently read as node 1 if truncated to int.
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"ta\":0", "\"ta\":4294967297")),
            "capture: JSONL: key \"ta\" out of range");
  EXPECT_EQ(jsonl_error(edit(journal_with(kRtsRecord), "\"standard\":0",
                             "\"standard\":4294967296")),
            "capture: JSONL: key \"standard\" out of range");
  EXPECT_EQ(parse_record(edit(kRtsRecord, "\"ta\":0", "\"ta\":-2147483648")).ta,
            std::numeric_limits<int>::min());
}

TEST(JsonlLimits, Int64OverflowThrows) {
  EXPECT_EQ(record_error(edit(kRtsRecord, "\"e\":442000", "\"e\":9223372036854775808")),
            "capture: JSONL: key \"e\" out of range");
  EXPECT_EQ(record_error(edit(kDataRecord, "\"pu\":1", "\"pu\":18446744073709551616")),
            "capture: JSONL: key \"pu\" out of range");
  EXPECT_EQ(parse_record(edit(kDataRecord, "\"pu\":1", "\"pu\":18446744073709551615"))
                .pkt_uid,
            std::numeric_limits<std::uint64_t>::max());
}

// --- live vs replay equivalence ----------------------------------------------

TEST(Replay, MatchesLiveNavValidatorVerdicts) {
  const std::string stem = artifact_stem();
  const NavLive live = run_nav_scenario(stem, 11, seconds(1), true);
  ASSERT_GT(live.validated, 0);
  ASSERT_GT(live.detections, 0) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.nav_validated, live.validated);
  EXPECT_EQ(offline.nav_detections, live.detections);
  EXPECT_EQ(offline.nav_detections_by_node, live.by_node);
}

TEST(Replay, MatchesLiveSpoofDetectorVerdicts) {
  // grc_defense scenario 2: two TCP pairs, the far receiver spoofing MAC
  // ACKs for the victim flow, channel lossy enough that spoofs matter.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 11;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_tcp_flow(ns, nr);
  sim.add_tcp_flow(gs, gr);
  sim.make_ack_spoofer(gr, 1.0, {nr.id()});

  const std::string stem = artifact_stem();
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  SpoofDetector detector(1.0);
  detector.attach(ns.mac());

  sim.run();
  capture.close();
  const std::int64_t live_checked = detector.true_positives() +
                                    detector.false_positives() +
                                    detector.true_negatives() +
                                    detector.false_negatives();
  ASSERT_GT(live_checked, 0);
  ASSERT_GT(detector.flagged(), 0) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.acks_checked, live_checked);
  EXPECT_EQ(offline.spoof_tp, detector.true_positives());
  EXPECT_EQ(offline.spoof_fp, detector.false_positives());
  EXPECT_EQ(offline.spoof_tn, detector.true_negatives());
  EXPECT_EQ(offline.spoof_fn, detector.false_negatives());
  EXPECT_EQ(offline.spoof_flagged(), detector.flagged());
  EXPECT_EQ(offline.acks_ignored,
            static_cast<std::int64_t>(ns.mac().stats().acks_ignored));

  // The learned physical-layer profiles match too: same peers, same sample
  // counts, same sliding-window medians (the journal carries the measured
  // RSSI of every reception, so the offline monitor sees the identical
  // sample sequence).
  const RssiMonitor& live_mon = detector.monitor();
  std::vector<RssiProfile> live_rssi;
  for (const int peer : live_mon.peers()) {
    live_rssi.push_back(
        RssiProfile{peer, static_cast<std::int64_t>(live_mon.samples(peer)),
                    live_mon.median(peer).value_or(0.0)});
  }
  ASSERT_FALSE(live_rssi.empty());
  EXPECT_EQ(offline.rssi, live_rssi);
}

TEST(Replay, MatchesLiveBackoffMonitorVerdicts) {
  // The DOMINO baseline from a bystander vantage: two saturated UDP pairs,
  // the second sender backing off a tenth of what it should. The capture
  // and the live monitor both ride receiver 1's MAC, so replay sees the
  // exact busy/idle history the live channel_observer fed.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 26;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& honest_s = sim.add_node(l.senders[0]);
  Node& greedy_s = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(honest_s, r1);
  sim.add_udp_flow(greedy_s, r2);
  greedy_s.mac().set_backoff_cheat(0.1);

  const std::string stem = artifact_stem();
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(r1.mac());
  BackoffMonitor monitor(sim.scheduler(), sim.params());
  monitor.attach(r1.mac());

  sim.run();
  capture.close();
  ASSERT_GT(monitor.samples(greedy_s.id()), 20);
  ASSERT_TRUE(monitor.flagged(greedy_s.id())) << "scenario must exercise the attack";

  std::vector<BackoffVerdict> live;
  for (const int s : monitor.stations()) {
    live.push_back(BackoffVerdict{s, monitor.observed_backoff(s),
                                  monitor.samples(s), monitor.tx_share(s),
                                  monitor.flagged(s)});
  }

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_EQ(offline.backoff, live);
}

TEST(Replay, MatchesLiveCrossLayerVerdicts) {
  // The mobile-client fallback: no RSSI profile, so the victim sender
  // correlates layers instead — TCP retransmissions of segments its MAC
  // says were delivered betray the ACK spoofer. Same scenario as the RSSI
  // test but with no ACK filter installed (live or offline): every spoofed
  // ACK closes the exchange, so the spoofed segments really do get TCP
  // retransmitted later.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(2);
  cfg.seed = 11;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  const Sim::TcpFlow victim = sim.add_tcp_flow(ns, nr);
  sim.add_tcp_flow(gs, gr);
  sim.make_ack_spoofer(gr, 1.0, {nr.id()});

  const std::string stem = artifact_stem();
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  CrossLayerDetector detector;
  detector.attach(ns.mac(), *victim.sender);

  sim.run();
  capture.close();
  ASSERT_GT(detector.suspicious_retransmissions(), 0)
      << "scenario must exercise the attack";

  ReplayOptions opts;
  opts.spoof = false;  // mirror the live run: no ACK filter installed
  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"), opts);
  ASSERT_EQ(offline.cross_layer.size(), 1u);
  const CrossLayerVerdict& v = offline.cross_layer[0];
  EXPECT_EQ(v.flow_id, victim.flow_id);
  EXPECT_EQ(v.mac_acked, detector.mac_acked_segments());
  EXPECT_EQ(v.suspicious, detector.suspicious_retransmissions());
  EXPECT_EQ(v.detected, detector.detected());
}

TEST(Replay, MatchesLiveFakeAckVerdict) {
  // grc_defense scenario 3: one UDP pair over a 50% FER link, the receiver
  // faking ACKs for frames it could not decode; the sender probes.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(4);
  cfg.seed = 11;
  cfg.rts_cts = false;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(1);
  Node& gs = sim.add_node(l.senders[0]);
  Node& gr = sim.add_node(l.receivers[0]);
  sim.channel().error_model().set_link_ber(
      gs.id(), gr.id(),
      ErrorModel::ber_for_fer(0.5, ErrorModel::error_len(FrameType::kData, 1064)));
  sim.add_udp_flow(gs, gr, 1.0);
  sim.make_fake_acker(gr, 1.0);

  const std::string stem = artifact_stem();
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(gs.mac());
  FakeAckDetector::Config dc;
  dc.probe_payload_bytes = 512;
  FakeAckDetector detector(sim.scheduler(), gs, gr.id(), sim.reserve_flow_id(),
                           dc);
  detector.start(0);

  sim.run();
  capture.close();
  ASSERT_TRUE(detector.detected()) << "scenario must exercise the attack";

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  ASSERT_EQ(offline.fake_ack.size(), 1u);
  const FakeAckVerdict& v = offline.fake_ack[0];
  EXPECT_EQ(v.dest, gr.id());
  EXPECT_EQ(v.probes_seen, detector.probes_sent());
  EXPECT_EQ(v.mac_loss, detector.mac_loss());
  EXPECT_EQ(v.application_loss, detector.application_loss());
  EXPECT_EQ(v.expected_app_loss, detector.expected_app_loss());
  EXPECT_EQ(v.detected, detector.detected());
}

TEST(Replay, HonestRunRaisesNoVerdicts) {
  // Same topology as the NAV scenario but with everyone honest: replay
  // must validate plenty of frames and flag none.
  SimConfig cfg;
  cfg.warmup = milliseconds(10);
  cfg.measure = seconds(1);
  cfg.seed = 12;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  sim.add_udp_flow(ns, nr);
  sim.add_udp_flow(gs, gr);
  (void)gs;
  (void)gr;

  const std::string stem = artifact_stem();
  CaptureWriter capture(sim.scheduler(), stem);
  capture.attach(ns.mac());
  sim.run();
  capture.close();

  const ReplayResult offline = replay_capture(read_jsonl(stem + ".jsonl"));
  EXPECT_GT(offline.nav_validated, 0);
  EXPECT_EQ(offline.nav_detections, 0);
  for (const FakeAckVerdict& v : offline.fake_ack) EXPECT_FALSE(v.detected);
}

// --- golden fixture -----------------------------------------------------------

#ifndef G80211_TEST_DATA_DIR
#define G80211_TEST_DATA_DIR "tests/data"
#endif

TEST(CaptureGolden, CommittedFixtureIsBitStable) {
  // Regenerate the fixture scenario and compare byte-for-byte against the
  // committed files: any drift in the capture byte format (or in the
  // simulation it records) fails here. With G80211_REGEN_GOLDEN=1 the
  // fixtures are rewritten instead (for intended format changes only).
  const std::string stem = artifact_stem();
  run_nav_scenario(stem, 7, milliseconds(100), false);

  const std::string data_dir = G80211_TEST_DATA_DIR;
  const std::string golden_pcap = data_dir + "/golden_capture.pcap";
  const std::string golden_jsonl = data_dir + "/golden_capture.jsonl";

  if (const char* regen = std::getenv("G80211_REGEN_GOLDEN");
      regen && std::string(regen) == "1") {
    std::filesystem::create_directories(data_dir);
    spit(golden_pcap, slurp(stem + ".pcap"));
    spit(golden_jsonl, slurp(stem + ".jsonl"));
    GTEST_SKIP() << "golden capture fixtures regenerated";
  }

  EXPECT_EQ(slurp(stem + ".pcap"), slurp(golden_pcap))
      << "capture pcap byte format drifted from the committed fixture";
  EXPECT_EQ(slurp_text(stem + ".jsonl"), slurp_text(golden_jsonl))
      << "capture jsonl format drifted from the committed fixture";

  // The committed fixture itself must parse and replay: the journal
  // records the 31 ms CTS inflation attack, so offline detection flags
  // the greedy receiver (station 3) without any live simulation.
  const Capture cap = read_capture(golden_jsonl);
  const ReplayResult res = replay_capture(cap);
  EXPECT_GT(res.nav_validated, 0);
  EXPECT_GT(res.nav_detections, 0);
  ASSERT_EQ(res.nav_detections_by_node.size(), 1u);
  EXPECT_EQ(res.nav_detections_by_node.begin()->first, 3);

  const Capture pc = read_capture(golden_pcap);
  EXPECT_EQ(pc.frames.size(), cap.frames.size());
  EXPECT_EQ(pc.skipped_unknown, 0);
}

}  // namespace g80211
