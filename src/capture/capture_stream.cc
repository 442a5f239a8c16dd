#include "src/capture/capture_stream.h"

#include "src/capture/format_detail.h"

namespace g80211 {

using capture_detail::ByteCursor;
using capture_detail::fail;

CaptureStreamReader::CaptureStreamReader(const std::string& path)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) fail("cannot open " + path);
}

CaptureStreamReader::~CaptureStreamReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t CaptureStreamReader::read_appended() {
  // A previous read hit EOF; the file may have grown since. Clearing the
  // EOF flag makes stdio look again.
  std::clearerr(file_);
  std::size_t total = 0;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file_)) > 0) {
    buf_.insert(buf_.end(), chunk, chunk + n);
    total += n;
  }
  return total;
}

void CaptureStreamReader::compact(std::size_t consumed) {
  if (consumed == 0) return;
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  buf_offset_ += static_cast<std::int64_t>(consumed);
}

std::size_t CaptureStreamReader::poll(std::vector<CapturedFrame>& out) {
  read_appended();
  if (format_ == Format::kUndetected) {
    if (buf_.empty()) return 0;
    if (buf_[0] == '{') {
      format_ = Format::kJsonl;
    } else {
      if (buf_.size() < 4) return 0;  // could still be a pcap magic prefix
      const std::uint32_t magic = static_cast<std::uint32_t>(buf_[0]) |
                                  (static_cast<std::uint32_t>(buf_[1]) << 8) |
                                  (static_cast<std::uint32_t>(buf_[2]) << 16) |
                                  (static_cast<std::uint32_t>(buf_[3]) << 24);
      if (magic != kPcapMagicNs) fail("unrecognised capture file " + path_);
      format_ = Format::kPcap;
    }
  }
  return format_ == Format::kPcap ? drain_pcap(out) : drain_jsonl(out);
}

std::size_t CaptureStreamReader::drain_pcap(std::vector<CapturedFrame>& out) {
  ByteCursor c{&buf_};
  if (!pcap_header_) {
    if (!capture_detail::parse_pcap_file_header(c)) return 0;
    pcap_header_ = true;
  }

  std::size_t emitted = 0;
  for (;;) {
    capture_detail::PcapRecordHeader h;
    const std::size_t record_offset = c.pos;
    if (!capture_detail::read_pcap_record(c, h)) break;
    CapturedFrame f;
    if (capture_detail::parse_pcap_record_body(c, h, f)) {
      if (f.end > end_time_) end_time_ = f.end;
      out.push_back(f);
      ++emitted;
    } else {
      if (skipped_unknown_ == 0) {
        first_skipped_offset_ =
            buf_offset_ + static_cast<std::int64_t>(record_offset);
      }
      ++skipped_unknown_;
    }
  }
  compact(c.pos);
  return emitted;
}

std::size_t CaptureStreamReader::drain_jsonl(std::vector<CapturedFrame>& out) {
  // A line is parseable only once its newline has been written; the
  // producer writes whole lines, but the filesystem shows us prefixes.
  const std::size_t first = out.size();
  const std::string_view text(reinterpret_cast<const char*>(buf_.data()),
                              buf_.size());
  compact(capture_detail::feed_jsonl_lines(text, journal_, out));
  for (std::size_t i = first; i < out.size(); ++i) {
    if (out[i].end > end_time_) end_time_ = out[i].end;
  }
  return out.size() - first;
}

}  // namespace g80211
