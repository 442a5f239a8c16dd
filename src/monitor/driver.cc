#include "src/monitor/driver.h"

#include <algorithm>
#include <stdexcept>

namespace g80211 {

MonitorDriver::MonitorDriver(MonitorOptions opts,
                             const std::vector<std::string>& paths)
    : opts_(opts),
      shards_(std::max(1, std::min<int>(opts.shards,
                                        static_cast<int>(std::max<std::size_t>(
                                            paths.size(), 1))))),
      pool_(static_cast<unsigned>(shards_)) {
  streams_.reserve(paths.size());
  for (const std::string& p : paths) {
    streams_.push_back(std::make_unique<Stream>(p));
  }
}

void MonitorDriver::pump(Stream& s) {
  s.polled.clear();
  s.reader.poll(s.polled);
  // Reject pcap on the magic bytes, before a full file header exists:
  // a tailed pcap would otherwise never produce a monitor record (and
  // never finish), so follow mode would poll it silently forever.
  if (s.reader.pcap_detected()) {
    throw std::runtime_error(
        "monitor: " + s.reader.path() +
        ": pcap capture detected — the monitor (and --follow tail mode) "
        "requires JSONL journals: pcap drops the exact ticks, parameters "
        "and ground truth the detectors need");
  }
  if (s.monitor == nullptr && s.reader.header_ready()) {
    s.monitor = std::make_unique<StreamMonitor>(
        s.reader.params(), s.reader.owner(), opts_.config);
  }
  if (s.monitor != nullptr) {
    for (const CapturedFrame& f : s.polled) s.monitor->step(f);
  }
  s.consumed_last_pass = s.polled.size();
}

std::size_t MonitorDriver::pass() {
  for (int shard = 0; shard < shards_; ++shard) {
    pool_.submit([this, shard] {
      for (std::size_t i = static_cast<std::size_t>(shard);
           i < streams_.size(); i += static_cast<std::size_t>(shards_)) {
        pump(*streams_[i]);
      }
    });
  }
  pool_.wait();
  std::size_t total = 0;
  for (const auto& s : streams_) total += s->consumed_last_pass;
  return total;
}

bool MonitorDriver::finished() const {
  for (const auto& s : streams_) {
    if (!s->reader.finished()) return false;
  }
  return true;
}

void MonitorDriver::drain() {
  while (pass() > 0) {
  }
  finalize();
}

void MonitorDriver::finalize() {
  if (finalized_) return;
  for (const auto& s : streams_) {
    if (!s->reader.finished()) {
      throw std::runtime_error("monitor: " + s->reader.path() +
                               ": truncated capture (missing footer)");
    }
    if (s->reader.pending_bytes() > 0) {
      throw std::runtime_error("monitor: " + s->reader.path() +
                               ": trailing bytes after the last record");
    }
  }
  finalized_ = true;
  for (const auto& s : streams_) {
    if (s->monitor != nullptr) s->monitor->finalize(s->reader.end_time());
  }
}

StreamStatus MonitorDriver::status(std::size_t i) const {
  const Stream& s = *streams_.at(i);
  StreamStatus st;
  st.path = s.reader.path();
  st.owner = s.reader.owner();
  st.header_ready = s.reader.header_ready();
  st.finished = s.reader.finished();
  st.frames = s.monitor != nullptr ? s.monitor->frames() : 0;
  st.end_time = s.reader.end_time();
  st.skipped_unknown = s.reader.skipped_unknown();
  st.first_skipped_offset = s.reader.first_skipped_offset();
  return st;
}

ReplayResult MonitorDriver::verdicts(std::size_t i) const {
  const Stream& s = *streams_.at(i);
  if (s.monitor == nullptr) return ReplayResult{};
  return s.monitor->verdicts(s.reader.end_time());
}

std::vector<StreamWindow> MonitorDriver::drain_windows() {
  std::vector<StreamWindow> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i]->monitor == nullptr) continue;
    for (WindowRecord& w : streams_[i]->monitor->drain_windows()) {
      out.push_back({static_cast<int>(i), std::move(w)});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const StreamWindow& a, const StreamWindow& b) {
                     return a.window.end < b.window.end;
                   });
  return out;
}

std::vector<StreamAlert> MonitorDriver::drain_alerts() {
  std::vector<StreamAlert> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i]->monitor == nullptr) continue;
    for (const Alert& a : streams_[i]->monitor->drain_alerts()) {
      out.push_back({static_cast<int>(i), a});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const StreamAlert& a, const StreamAlert& b) {
                     return a.alert.at < b.alert.at;
                   });
  return out;
}

}  // namespace g80211
