// Capture parsing — the inverse of capture_writer.h.
//
// Strict by design: a malformed file (bad magic, truncated record, missing
// JSONL footer, foreign MAC address, out-of-order records) throws
// std::runtime_error with a message naming the defect. The one tolerated
// irregularity is an unrecognised pcap record (unknown radiotap layout or
// 802.11 type/subtype — e.g. a beacon from a real capture): such records
// are skipped and counted in Capture::skipped_unknown, so a reader can
// distinguish "clean" from "partially understood".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/capture/capture.h"

namespace g80211 {

// Parse a pcap byte stream / JSONL text (in-memory; the file readers and
// the round-trip tests share these).
Capture parse_pcap(const std::vector<std::uint8_t>& bytes);
Capture parse_jsonl(std::string_view text);

// Read and parse a capture file. read_capture() dispatches on content: the
// pcap magic selects the pcap parser, a leading '{' the JSONL parser.
Capture read_pcap(const std::string& path);
Capture read_jsonl(const std::string& path);
Capture read_capture(const std::string& path);

}  // namespace g80211
