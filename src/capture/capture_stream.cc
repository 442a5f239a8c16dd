#include "src/capture/capture_stream.h"

#include "src/capture/format_detail.h"

namespace g80211 {

using capture_detail::ByteCursor;
using capture_detail::CaptureFormat;
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
  if (format_ == CaptureFormat::kPending) {
    format_ = capture_detail::sniff_format(buf_);
    if (format_ == CaptureFormat::kUnrecognised) {
      fail("unrecognised capture file " + path_);
    }
  }
  if (format_ == CaptureFormat::kPcap) {
    ByteCursor c{&buf_};
    const std::size_t emitted = pcap_.feed(c, buf_offset_, out);
    compact(c.pos);
    return emitted;
  }
  if (format_ != CaptureFormat::kJsonl) return 0;  // still sniffing
  // A line is parseable only once its newline has been written; the
  // producer writes whole lines, but the filesystem shows us prefixes.
  const std::size_t first = out.size();
  const std::string_view text(reinterpret_cast<const char*>(buf_.data()),
                              buf_.size());
  compact(capture_detail::feed_jsonl_lines(text, journal_, out));
  return out.size() - first;
}

}  // namespace g80211
