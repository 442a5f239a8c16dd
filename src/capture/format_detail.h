// Record-level parsing internals shared by the one-shot readers
// (capture_reader.cc) and the incremental tail reader (capture_stream.cc).
//
// Not part of the public capture API: everything here lives in
// g80211::capture_detail and may change shape freely. The split exists so
// the two front-ends parse a record through literally the same code — the
// byte-exact round-trip guarantee and the monitor's tail mode cannot
// drift apart.
//
// The incremental contract: both readers sniff the format with
// sniff_format() and hand their buffered pcap bytes to one PcapFile, which
// stops where the bytes end before a record does ("wait for more input")
// and throws std::runtime_error only for bytes that can never become valid
// (bad magic, bad radiotap version, foreign MAC address). A one-shot
// parser turns leftover bytes into a "truncated" error; a tail reader
// keeps them for the next poll. JSONL is line-framed instead: both readers
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

// --- format sniff ------------------------------------------------------------

// What a capture's first bytes say it is: the pcap magic or a leading '{'.
// kPending while the bytes are empty, or fewer than 4 and not '{' (they
// could still grow into a pcap magic).
enum class CaptureFormat { kPending, kPcap, kJsonl, kUnrecognised };
CaptureFormat sniff_format(const std::vector<std::uint8_t>& bytes);

// --- pcap --------------------------------------------------------------------

inline constexpr std::size_t kPcapFileHeaderLen = 24;
inline constexpr std::size_t kPcapRecordHeaderLen = 16;

// Reads the global pcap file header (magic/version/linktype) with checked
// reads: throws on anything that is not our pcap flavour, or names the
// field the bytes run out in.
void read_pcap_file_header(ByteCursor& c);

// File-level state of one pcap capture: the file header, then records
// until the buffered bytes run out.
struct PcapFile {
  bool header_seen = false;
  Time end_time = 0;  // latest frame end
  // Unrecognised records (unknown radiotap layout or frame type/subtype)
  // are skipped and counted, not errors.
  std::int64_t skipped_unknown = 0;
  std::int64_t first_skipped_offset = -1;

  // Parses the file header (once) and then every record complete in c's
  // bytes, appending the frames to `out`; `file_offset` is the absolute
  // file position of c's first byte. Stops at the first record that is not
  // fully buffered, with the cursor at its start. Returns frames appended.
  std::size_t feed(ByteCursor& c, std::int64_t file_offset,
                   std::vector<CapturedFrame>& out);
};

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
  Time end_time = 0;    // from the footer; latest frame end until then
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
