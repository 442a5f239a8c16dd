// Incremental capture reader: the tail(1) counterpart of capture_reader.
//
// Opens a pcap or JSONL capture file and parses it record-by-record as the
// bytes arrive, tolerating a file that is still being written (a live
// CaptureWriter journal). Each poll() reads whatever has been appended
// since the last call and emits every *complete* record; a record split by
// the current end of file stays buffered until a later poll completes it.
// Records are therefore delivered exactly once, in journal order, with the
// same parsing code — and the same validation and error messages — as the
// one-shot readers (src/capture/format_detail.h is shared by both).
//
// Format is sniffed from the first bytes (pcap magic vs. '{'). For JSONL
// the stream knows when it is complete (the footer line); pcap has no
// footer, so finished() stays false and the caller decides when to stop
// polling. pending_bytes() exposes whether the buffer holds a partial
// record — nonzero after the producer has finished means a truncated file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/capture/format_detail.h"

namespace g80211 {

class CaptureStreamReader {
 public:
  // Opens the file; throws std::runtime_error when it cannot be opened.
  // The file may be empty or partially written at this point.
  explicit CaptureStreamReader(const std::string& path);
  ~CaptureStreamReader();
  CaptureStreamReader(const CaptureStreamReader&) = delete;
  CaptureStreamReader& operator=(const CaptureStreamReader&) = delete;

  // Read newly appended bytes and append every newly completed record to
  // `out`. Returns the number of records appended. Throws on bytes that
  // can never become a valid capture (same conditions as read_capture).
  std::size_t poll(std::vector<CapturedFrame>& out);

  // True once the format sniff saw the pcap magic — available as soon as
  // the first 4 bytes arrive, long before a full pcap file header. Callers
  // that only accept JSONL journals (the monitor, whose detectors need the
  // exact ticks and ground truth pcap drops) use this to fail fast instead
  // of tailing a file that can never produce a record for them.
  bool pcap_detected() const {
    return format_ == capture_detail::CaptureFormat::kPcap;
  }

  // File-level metadata, valid once header_ready().
  bool header_ready() const {
    return pcap_.header_seen || journal_.header_seen;
  }
  bool has_params() const {
    return format_ == capture_detail::CaptureFormat::kJsonl;
  }
  const WifiParams& params() const { return journal_.params; }
  int owner() const { return journal_.owner; }  // kNoAddr for pcap

  // JSONL footer seen: the capture is complete and end_time() is the
  // recorded horizon. pcap never finishes from the reader's viewpoint;
  // end_time() then tracks the latest frame end seen.
  bool finished() const { return journal_.footer_seen; }
  Time end_time() const {
    return pcap_detected() ? pcap_.end_time : journal_.end_time;
  }

  // Skip-and-count statistics for unrecognised pcap records; the offset is
  // the first skipped record's absolute byte position in the file.
  std::int64_t skipped_unknown() const { return pcap_.skipped_unknown; }
  std::int64_t first_skipped_offset() const {
    return pcap_.first_skipped_offset;
  }

  // Buffered bytes not yet parsed into a record. Nonzero once the producer
  // has stopped writing means the file ends mid-record (truncated).
  std::size_t pending_bytes() const { return buf_.size(); }

  const std::string& path() const { return path_; }

 private:
  std::size_t read_appended();
  void compact(std::size_t consumed);

  std::string path_;
  std::FILE* file_ = nullptr;

  std::vector<std::uint8_t> buf_;   // unparsed bytes
  std::int64_t buf_offset_ = 0;     // absolute file offset of buf_[0]

  capture_detail::CaptureFormat format_ =
      capture_detail::CaptureFormat::kPending;
  capture_detail::PcapFile pcap_;         // pcap header, horizon, skips
  capture_detail::JsonlJournal journal_;  // JSONL header, footer, order
};

}  // namespace g80211
