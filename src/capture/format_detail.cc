#include "src/capture/format_detail.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace g80211 {
namespace capture_detail {

void fail(const std::string& what) {
  throw std::runtime_error("capture: " + what);
}

std::uint8_t ByteCursor::u8(const char* what) {
  need(1, what);
  return (*bytes)[pos++];
}

std::uint16_t ByteCursor::u16(const char* what) {
  need(2, what);
  const std::uint16_t v =
      static_cast<std::uint16_t>((*bytes)[pos] | ((*bytes)[pos + 1] << 8));
  pos += 2;
  return v;
}

std::uint32_t ByteCursor::u32(const char* what) {
  need(4, what);
  const std::uint32_t v = static_cast<std::uint32_t>((*bytes)[pos]) |
                          (static_cast<std::uint32_t>((*bytes)[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>((*bytes)[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>((*bytes)[pos + 3]) << 24);
  pos += 4;
  return v;
}

namespace {

// 6 address bytes -> node id; throws on an address outside our OUI scheme.
int parse_addr(ByteCursor& c) {
  c.need(6, "802.11 address");
  const std::uint8_t* a = c.bytes->data() + c.pos;
  c.pos += 6;
  bool bcast = true;
  for (int i = 0; i < 6; ++i) bcast = bcast && a[i] == 0xff;
  if (bcast) return kBroadcast;
  if (a[0] != kMacOui[0] || a[1] != kMacOui[1] || a[2] != kMacOui[2] ||
      a[3] != kMacOui[3]) {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "foreign MAC address %02x:%02x:%02x:%02x:%02x:%02x", a[0],
                  a[1], a[2], a[3], a[4], a[5]);
    fail(buf);
  }
  return (a[4] << 8) | a[5];
}

// --- minimal strict JSON (flat objects of numbers and plain strings) ---------

// Every key a journal line may carry, in the order JsonlWriter writes them:
// the header's, a frame record's, then the footer's. The scanner tries the
// key after the previous match first, so a writer-ordered line costs one
// comparison per key.
constexpr std::string_view kKeys[] = {
    kJsonlHeaderKey, "owner", "standard", "slot", "sifs", "difs", "plcp",
    "data_rate_mbps", "basic_rate_mbps", "cw_min", "cw_max",
    "short_retry_limit", "long_retry_limit", "rts_bytes", "cts_bytes",
    "ack_bytes", "data_mac_overhead_bytes",
    "t", "s", "e", "d", "ta", "ra", "tt", "sq", "fg", "mf", "r", "c", "cl",
    "tx", "rssi", "len", "rate", "fl", "ps", "pu", "sn", "dn", "cr", "pr",
    kJsonlFooterKey};
constexpr int kNumKeys = static_cast<int>(std::size(kKeys));
static_assert(kNumKeys <= 64, "the seen-key mask is one 64-bit word");

// A known key, resolved to its table slot at compile time: a key name
// missing from kKeys does not build.
struct Key {
  consteval Key(const char* name) : slot(0) {
    while (kKeys[slot] != name) ++slot;  // past the end: not a constant
  }
  std::string_view name() const { return kKeys[slot]; }
  int slot;
};

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') ||
         std::string_view("-+.eEnaif").find(c) != std::string_view::npos;
}

// Scans the string literal at s[i] and returns its body between the
// quotes, escapes still encoded.
std::string_view scan_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail("JSONL: expected string");
  const std::size_t start = ++i;
  for (;;) {
    while (i < s.size() && s[i] != '"' && s[i] != '\\') ++i;
    if (i >= s.size()) fail("JSONL: unterminated string");
    if (s[i] == '"') break;
    if (++i >= s.size()) fail("JSONL: unterminated escape");
    if (std::string_view("\"\\nt").find(s[i]) == std::string_view::npos) {
      fail("JSONL: unsupported escape");
    }
    ++i;
  }
  const std::string_view body = s.substr(start, i - start);
  ++i;  // closing quote
  return body;
}

// The decoded text of a string body scan_string() accepted (a number token
// decodes to itself).
std::string decode(std::string_view body) {
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (c == '\\') {
      c = body[++i];
      if (c == 'n') c = '\n';
      if (c == 't') c = '\t';
    }
    out += c;
  }
  return out;
}

// std::from_chars over the whole token, after strtol's optional leading
// '+' (which from_chars does not take): invalid_argument unless every
// character is used.
template <class T>
std::errc to_number(std::string_view t, T& v) {
  if (t.size() > 1 && t[0] == '+' && t[1] != '-') t.remove_prefix(1);
  const char* end = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(t.data(), end, v);
  return ptr == end ? ec : std::errc::invalid_argument;
}

// One parsed journal line: a view into the line of each known key's value
// (a string's body or a number's token) and a bitmask of the keys present.
class JsonRecord {
 public:
  explicit JsonRecord(std::string_view line);

  bool has(Key k) const { return (seen_ >> k.slot) & 1; }
  std::string_view text(Key k) const { return value_of(k).text; }
  std::int64_t i64(Key k) const { return number<std::int64_t>(k); }
  int i32(Key k) const { return number<int>(k); }
  std::uint64_t u64(Key k) const { return number<std::uint64_t>(k); }
  double dbl(Key k) const { return number<double>(k); }

 private:
  struct Value {
    std::string_view text;
    bool is_string;
  };

  const Value& value_of(Key k) const {
    if (!has(k)) fail("JSONL: missing key \"" + std::string(k.name()) + "\"");
    return values_[k.slot];
  }
  template <class T>
  T number(Key k) const {
    const Value& v = value_of(k);
    const auto failure = [&](const char* what) {
      fail("JSONL: key \"" + std::string(k.name()) + "\" " + what);
    };
    const char* invalid =
        std::is_integral_v<T> ? "not an integer" : "not a number";
    if (v.is_string) failure("not a number");
    T out = 0;
    std::errc ec = to_number(v.text, out);
    // A negative integer in an unsigned key is an integer out of range.
    std::int64_t negative = 0;
    if (std::is_unsigned_v<T> && ec == std::errc::invalid_argument &&
        v.text[0] == '-' &&
        to_number(v.text, negative) != std::errc::invalid_argument) {
      ec = std::errc::result_out_of_range;
    }
    if (ec == std::errc::result_out_of_range) failure("out of range");
    if (ec != std::errc{}) failure(invalid);
    return out;
  }

  Value values_[kNumKeys];
  std::uint64_t seen_ = 0;
  std::vector<std::string> unknown_;  // decoded; allocates only if present
};

JsonRecord::JsonRecord(std::string_view line) {
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') fail("JSONL: expected '{'");
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    int next = 0;  // table slot after the previous match
    for (;;) {
      skip_ws(line, i);
      const std::string_view key = scan_string(line, i);
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') fail("JSONL: expected ':'");
      ++i;
      skip_ws(line, i);
      Value v{{}, false};
      if (i < line.size() && line[i] == '"') {
        v.text = scan_string(line, i);
        v.is_string = true;
      } else {
        const std::size_t start = i;
        while (i < line.size() && is_number_char(line[i])) ++i;
        if (i == start) fail("JSONL: expected value");
        v.text = line.substr(start, i - start);
      }

      // An escaped key never matches: no known key needs an escape.
      int slot = -1;
      for (int n = 0; n < kNumKeys && slot < 0; ++n) {
        if (kKeys[(next + n) % kNumKeys] == key) slot = (next + n) % kNumKeys;
      }
      if (slot >= 0 && (seen_ >> slot) & 1) {
        fail("JSONL: duplicate key \"" + std::string(key) + "\"");
      }
      if (slot >= 0) {
        seen_ |= std::uint64_t{1} << slot;
        values_[slot] = v;
        next = slot + 1;
      } else {
        // Unknown keys are ignored, but compared decoded for repeats.
        std::string name = decode(key);
        if (std::find(unknown_.begin(), unknown_.end(), name) !=
            unknown_.end()) {
          fail("JSONL: duplicate key \"" + name + "\"");
        }
        unknown_.push_back(std::move(name));
      }

      skip_ws(line, i);
      if (i >= line.size()) fail("JSONL: unterminated object");
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      fail("JSONL: expected ',' or '}'");
    }
  }
  skip_ws(line, i);
  if (i != line.size()) fail("JSONL: trailing content after object");
}

FrameType frame_type_from_name(std::string_view name) {
  if (name == "RTS") return FrameType::kRts;
  if (name == "CTS") return FrameType::kCts;
  if (name == "DATA") return FrameType::kData;
  if (name == "ACK") return FrameType::kAck;
  fail("JSONL: unknown frame type \"" + decode(name) + "\"");
}

// Header line: validates the format marker/version and fills the
// journal's owner and params.
void parse_jsonl_header(std::string_view line, JsonlJournal& j) {
  const JsonRecord rec(line);
  if (!rec.has(kJsonlHeaderKey)) {
    fail("JSONL: not a g80211 capture (missing header line)");
  }
  if (rec.i64(kJsonlHeaderKey) != kJsonlFormatVersion) {
    fail("JSONL: unsupported capture format version");
  }
  j.owner = rec.i32("owner");
  WifiParams& p = j.params;
  const int standard = rec.i32("standard");
  if (standard < 0 || standard > 2) fail("JSONL: bad standard");
  p.standard = static_cast<Standard>(standard);
  p.slot = rec.i64("slot");
  p.sifs = rec.i64("sifs");
  p.difs = rec.i64("difs");
  p.plcp = rec.i64("plcp");
  p.data_rate_mbps = rec.dbl("data_rate_mbps");
  p.basic_rate_mbps = rec.dbl("basic_rate_mbps");
  p.cw_min = rec.i32("cw_min");
  p.cw_max = rec.i32("cw_max");
  p.short_retry_limit = rec.i32("short_retry_limit");
  p.long_retry_limit = rec.i32("long_retry_limit");
  p.rts_bytes = rec.i32("rts_bytes");
  p.cts_bytes = rec.i32("cts_bytes");
  p.ack_bytes = rec.i32("ack_bytes");
  p.data_mac_overhead_bytes = rec.i32("data_mac_overhead_bytes");
}

}  // namespace

// --- pcap --------------------------------------------------------------------

bool parse_pcap_file_header(ByteCursor& c) {
  if (c.remaining() < 24) return false;
  if (c.u32("pcap magic") != kPcapMagicNs) {
    fail("bad pcap magic (expected nanosecond-resolution little-endian pcap)");
  }
  const std::uint16_t vmaj = c.u16("pcap version");
  const std::uint16_t vmin = c.u16("pcap version");
  if (vmaj != kPcapVersionMajor || vmin != kPcapVersionMinor) {
    fail("unsupported pcap version");
  }
  c.u32("pcap header");  // thiszone
  c.u32("pcap header");  // sigfigs
  c.u32("pcap header");  // snaplen
  if (c.u32("pcap linktype") != kLinktypeRadiotap) {
    fail("unsupported linktype (want IEEE802_11_RADIOTAP)");
  }
  return true;
}

bool read_pcap_record(ByteCursor& c, PcapRecordHeader& h) {
  if (c.remaining() < 16) return false;
  const std::size_t mark = c.pos;
  const std::uint32_t ts_sec = c.u32("pcap record header");
  const std::uint32_t ts_nsec = c.u32("pcap record header");
  h.incl = c.u32("pcap record header");
  h.orig = c.u32("pcap record header");
  if (c.remaining() < h.incl) {
    c.pos = mark;  // incomplete record: rewind so the caller can retry
    return false;
  }
  h.start = static_cast<Time>(ts_sec) * 1000000000 + ts_nsec;
  return true;
}

bool parse_pcap_record_body(ByteCursor& c, const PcapRecordHeader& h,
                            CapturedFrame& f) {
  const std::size_t record_end = c.pos + h.incl;
  f = CapturedFrame{};
  f.start = h.start;
  f.end = f.start;  // reception end times are not representable in pcap
  f.bytes =
      h.orig >= kRadiotapLen ? static_cast<int>(h.orig - kRadiotapLen) : 0;

  // Radiotap. Version 0 is the only version that exists; anything else is
  // file corruption, not an unknown capture flavour.
  if (c.u8("radiotap header") != 0) fail("bad radiotap version");
  c.u8("radiotap header");  // pad
  const std::uint16_t rt_len = c.u16("radiotap header");
  const std::uint32_t present = c.u32("radiotap header");
  if (rt_len < 8 || rt_len > h.incl) fail("bad radiotap length");
  bool known = rt_len == kRadiotapLen && present == kRadiotapPresent;
  if (known) {
    const std::uint8_t flags = c.u8("radiotap fields");
    f.corrupted = (flags & kRadiotapFlagBadFcs) != 0;
    f.rate_mbps = c.u8("radiotap fields") / 2.0;
    f.rssi_dbm =
        static_cast<double>(static_cast<std::int8_t>(c.u8("radiotap fields")));

    // 802.11 MAC header.
    const std::uint8_t fc = c.u8("frame control");
    const std::uint8_t fc_flags = c.u8("frame control");
    f.retry = (fc_flags & kFcFlagRetry) != 0;
    f.more_frags = (fc_flags & kFcFlagMoreFrags) != 0;
    switch (fc) {
      case kFcRts:
        f.type = FrameType::kRts;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = parse_addr(c);
        break;
      case kFcCts:
      case kFcAck:
        f.type = fc == kFcCts ? FrameType::kCts : FrameType::kAck;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = kNoAddr;  // CTS/ACK carry no transmitter address on air
        break;
      case kFcData: {
        f.type = FrameType::kData;
        f.duration = static_cast<Time>(c.u16("duration")) * 1000;
        f.ra = parse_addr(c);
        f.ta = parse_addr(c);
        parse_addr(c);  // addr3 duplicates the TA
        const std::uint16_t seqctl = c.u16("sequence control");
        f.seq = seqctl >> 4;
        f.frag = seqctl & 0xf;
        break;
      }
      default:
        known = false;  // unknown type/subtype (e.g. beacons): skip
        break;
    }
  }
  if (known && c.pos != record_end) fail("pcap record length mismatch");
  c.pos = record_end;
  return known;
}

// --- jsonl -------------------------------------------------------------------

JsonlLine parse_jsonl_record(std::string_view line, CapturedFrame& f,
                             Time& end_time) {
  const JsonRecord rec(line);
  if (rec.has(kJsonlFooterKey)) {
    end_time = rec.i64(kJsonlFooterKey);
    return JsonlLine::kFooter;
  }

  f = CapturedFrame{};
  f.type = frame_type_from_name(rec.text("t"));
  f.start = rec.i64("s");
  f.end = rec.i64("e");
  f.duration = rec.i64("d");
  f.ta = rec.i32("ta");
  f.ra = rec.i32("ra");
  f.true_tx = rec.i32("tt");
  f.seq = rec.i32("sq");
  f.frag = rec.i32("fg");
  f.more_frags = rec.i64("mf") != 0;
  f.retry = rec.i64("r") != 0;
  f.corrupted = rec.i64("c") != 0;
  f.collided = rec.i64("cl") != 0;
  f.tx = rec.i64("tx") != 0;
  f.rssi_dbm = rec.dbl("rssi");
  f.bytes = rec.i32("len");
  f.rate_mbps = rec.dbl("rate");
  if (f.type == FrameType::kData) {
    f.flow_id = rec.i32("fl");
    f.pkt_seq = rec.i64("ps");
    f.pkt_uid = rec.u64("pu");
    f.src_node = rec.i32("sn");
    f.dst_node = rec.i32("dn");
    f.pkt_created = rec.i64("cr");
    const int probe = rec.i32("pr");
    if (probe < 0 || probe > 2) fail("JSONL: bad probe marker");
    f.probe = probe != 0;
    f.probe_reply = probe == 2;
  }
  if (f.end < f.start) fail("JSONL: frame ends before it starts");
  return JsonlLine::kFrame;
}

bool JsonlJournal::feed(std::string_view line, CapturedFrame& f) {
  if (line.empty()) return false;
  if (footer_seen) fail("JSONL: content after footer");
  if (!header_seen) {
    parse_jsonl_header(line, *this);
    header_seen = true;
    return false;
  }
  if (parse_jsonl_record(line, f, end_time) == JsonlLine::kFooter) {
    footer_seen = true;
    return false;
  }
  // Records are journalled in MAC event order (tx at start, rx at end);
  // a regression means the file was corrupted or hand-reordered.
  if (f.event_time() < last_event) fail("JSONL: records out of order");
  last_event = f.event_time();
  return true;
}

std::size_t feed_jsonl_lines(std::string_view text, JsonlJournal& journal,
                             std::vector<CapturedFrame>& out) {
  std::size_t pos = 0;
  CapturedFrame f;
  while (pos < text.size()) {
    const void* nl = std::memchr(text.data() + pos, '\n', text.size() - pos);
    if (nl == nullptr) break;
    const std::size_t end = static_cast<std::size_t>(
        static_cast<const char*>(nl) - text.data());
    if (journal.feed(text.substr(pos, end - pos), f)) out.push_back(f);
    pos = end + 1;
  }
  return pos;
}

}  // namespace capture_detail
}  // namespace g80211
