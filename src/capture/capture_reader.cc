#include "src/capture/capture_reader.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/capture/format_detail.h"

namespace g80211 {

namespace {

using capture_detail::ByteCursor;
using capture_detail::fail;

std::vector<std::uint8_t> slurp_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) fail("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

std::string_view as_text(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

// --- pcap --------------------------------------------------------------------

Capture parse_pcap(const std::vector<std::uint8_t>& bytes) {
  ByteCursor c{&bytes};
  if (!capture_detail::parse_pcap_file_header(c)) {
    // Short file: re-run the checked field reads so the error names the
    // exact field the bytes ran out in (or the bad value before that).
    if (c.u32("pcap magic") != kPcapMagicNs) {
      fail("bad pcap magic (expected nanosecond-resolution little-endian pcap)");
    }
    const std::uint16_t vmaj = c.u16("pcap version");
    const std::uint16_t vmin = c.u16("pcap version");
    if (vmaj != kPcapVersionMajor || vmin != kPcapVersionMinor) {
      fail("unsupported pcap version");
    }
    c.u32("pcap header");
    c.u32("pcap header");
    c.u32("pcap header");
    c.u32("pcap linktype");
  }

  Capture cap;
  while (c.remaining() > 0) {
    capture_detail::PcapRecordHeader h;
    if (!capture_detail::read_pcap_record(c, h)) {
      // One-shot parse: an incomplete trailing record is a truncated file.
      if (c.remaining() < 16) fail("truncated pcap record header");
      fail("truncated pcap record data");
    }
    const std::size_t record_offset = c.pos - 16;
    CapturedFrame f;
    if (capture_detail::parse_pcap_record_body(c, h, f)) {
      if (f.end > cap.end_time) cap.end_time = f.end;
      cap.frames.push_back(f);
    } else {
      if (cap.skipped_unknown == 0) {
        cap.first_skipped_offset = static_cast<std::int64_t>(record_offset);
      }
      ++cap.skipped_unknown;
    }
  }
  return cap;
}

// --- jsonl -------------------------------------------------------------------

Capture parse_jsonl(std::string_view text) {
  capture_detail::JsonlJournal journal;
  Capture cap;
  const std::size_t used =
      capture_detail::feed_jsonl_lines(text, journal, cap.frames);
  CapturedFrame f;
  if (used < text.size() && journal.feed(text.substr(used), f)) {
    cap.frames.push_back(f);  // a last line without its newline
  }
  if (!journal.header_seen) fail("JSONL: empty capture file");
  if (!journal.footer_seen) fail("JSONL: truncated capture (missing footer)");
  cap.owner = journal.owner;
  cap.params = journal.params;
  cap.has_params = true;
  cap.end_time = journal.end_time;
  return cap;
}

// --- file entry points --------------------------------------------------------

Capture read_pcap(const std::string& path) { return parse_pcap(slurp_bytes(path)); }

Capture read_jsonl(const std::string& path) {
  return parse_jsonl(as_text(slurp_bytes(path)));
}

Capture read_capture(const std::string& path) {
  const std::vector<std::uint8_t> bytes = slurp_bytes(path);
  if (bytes.size() >= 4) {
    const std::uint32_t magic =
        static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
    if (magic == kPcapMagicNs) return parse_pcap(bytes);
  }
  if (!bytes.empty() && bytes[0] == '{') {
    return parse_jsonl(as_text(bytes));
  }
  fail("unrecognised capture file " + path);
}

}  // namespace g80211
