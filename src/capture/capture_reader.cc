#include "src/capture/capture_reader.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/capture/format_detail.h"

namespace g80211 {

namespace {

using capture_detail::ByteCursor;
using capture_detail::CaptureFormat;
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
  capture_detail::PcapFile file;
  Capture cap;
  file.feed(c, 0, cap.frames);
  // One-shot parse: bytes left over are a truncated file. A short file
  // header is re-read with checked reads, so the error names the exact
  // field the bytes ran out in (or the bad value before that).
  if (!file.header_seen) capture_detail::read_pcap_file_header(c);
  if (c.remaining() > 0) {
    if (c.remaining() < capture_detail::kPcapRecordHeaderLen) {
      fail("truncated pcap record header");
    }
    fail("truncated pcap record data");
  }
  cap.end_time = file.end_time;
  cap.skipped_unknown = file.skipped_unknown;
  cap.first_skipped_offset = file.first_skipped_offset;
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
  switch (capture_detail::sniff_format(bytes)) {
    case CaptureFormat::kPcap: return parse_pcap(bytes);
    case CaptureFormat::kJsonl: return parse_jsonl(as_text(bytes));
    default: fail("unrecognised capture file " + path);
  }
}

}  // namespace g80211
