// Record-level parsing internals shared by the one-shot readers
// (capture_reader.cc) and the incremental tail reader (capture_stream.cc).
//
// Not part of the public capture API: everything here lives in
// g80211::capture_detail and may change shape freely. The split exists so
// the two front-ends parse a record through literally the same code — the
// byte-exact round-trip guarantee and the monitor's tail mode cannot
// drift apart.
//
// The incremental contract: pcap header/record readers return false when
// the buffered bytes end before the record does ("wait for more input"),
// and throw std::runtime_error only for bytes that can never become valid
// (bad magic, bad radiotap version, foreign MAC address). A one-shot
// parser turns a trailing false into a "truncated" error; a tail reader
// turns it into a poll-again. JSONL is line-framed instead: both readers
// hand each complete line to one JsonlJournal, which throws on a line
// that is not valid journal JSON.
//
// JSONL lines are parsed in place. Keys and values are std::string_view
// slices of the caller's line, looked up in a fixed table of the journal's
// keys and converted with std::from_chars; no view outlives the call, and
// a well-formed record allocates nothing. Only the rare paths copy: error
// messages, and unknown keys (collected so a repeated one is still
// rejected).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/capture/capture.h"

namespace g80211 {
namespace capture_detail {

[[noreturn]] void fail(const std::string& what);

// --- little-endian cursor with bounds checks ---------------------------------

struct ByteCursor {
  const std::vector<std::uint8_t>* bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes->size() - pos; }
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) fail(std::string("truncated ") + what);
  }
  std::uint8_t u8(const char* what);
  std::uint16_t u16(const char* what);
  std::uint32_t u32(const char* what);
};

// --- pcap --------------------------------------------------------------------

// Global pcap file header (magic/version/linktype). False: fewer than 24
// bytes available. Throws on anything that is not our pcap flavour.
bool parse_pcap_file_header(ByteCursor& c);

struct PcapRecordHeader {
  Time start = 0;           // nanosecond timestamp
  std::uint32_t incl = 0;   // captured bytes following the record header
  std::uint32_t orig = 0;   // original on-air length
};

// Record header + completeness check: false when the 16-byte header or the
// `incl` bytes after it are not fully buffered yet (cursor unmoved).
bool read_pcap_record(ByteCursor& c, PcapRecordHeader& h);

// Parse one record's radiotap + 802.11 bytes; the cursor sits right after
// the record header and is left at the record's end regardless of outcome.
// Returns false for an unrecognised record (unknown radiotap layout or
// frame type/subtype): skip-and-count, not an error.
bool parse_pcap_record_body(ByteCursor& c, const PcapRecordHeader& h,
                            CapturedFrame& f);

// --- jsonl -------------------------------------------------------------------

enum class JsonlLine { kFrame, kFooter };

// One post-header journal line: a frame record (fills `f`) or the footer
// (fills `end_time`). Throws on anything else.
JsonlLine parse_jsonl_record(std::string_view line, CapturedFrame& f,
                             Time& end_time);

// Line-level state of one journal: the first non-blank line is the header,
// frame records follow in MAC event order, and only blank lines may follow
// the footer.
struct JsonlJournal {
  bool header_seen = false;
  bool footer_seen = false;
  int owner = kNoAddr;  // from the header
  WifiParams params;    // from the header
  Time end_time = 0;    // from the footer
  Time last_event = 0;

  // Feeds one line (without its '\n'); true when it was a frame record,
  // now in `f`.
  bool feed(std::string_view line, CapturedFrame& f);
};

// Feeds every '\n'-terminated line of `text` to `journal`, appending its
// frames to `out`. Returns the bytes consumed: everything up to and
// including the last newline. A trailing partial line is left unread.
std::size_t feed_jsonl_lines(std::string_view text, JsonlJournal& journal,
                             std::vector<CapturedFrame>& out);

}  // namespace capture_detail
}  // namespace g80211
