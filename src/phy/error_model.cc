#include "src/phy/error_model.h"

#include <cmath>

#include "src/sim/check.h"

namespace g80211 {

int ErrorModel::error_len(FrameType type, int packet_bytes) {
  switch (type) {
    case FrameType::kRts:
      return 44;
    case FrameType::kCts:
    case FrameType::kAck:
      return 38;
    case FrameType::kData:
      return packet_bytes + 72;
  }
  return 0;
}

double ErrorModel::fer(double ber, int len) {
  if (ber <= 0.0) return 0.0;
  if (ber >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - ber, len);
}

double ErrorModel::ber_for_fer(double target_fer, int len) {
  G80211_CHECK(target_fer >= 0.0 && target_fer < 1.0 && len > 0);
  if (target_fer <= 0.0) return 0.0;
  return 1.0 - std::pow(1.0 - target_fer, 1.0 / len);
}

void ErrorModel::set_default_ber(double ber) {
  default_ber_ = ber;
  if (ber != 0.0) trivial_ = false;
}

void ErrorModel::set_link_ber(int tx, int rx, double ber) {
  if (ber != 0.0) trivial_ = false;
  links_[{tx, rx}].ber = ber;
}

void ErrorModel::set_link_rate_limit(int tx, int rx, double max_good_rate_mbps,
                                     double excess_fer) {
  links_[{tx, rx}].rate = RateLimit{max_good_rate_mbps, excess_fer};
  trivial_ = false;
}

double ErrorModel::cached_fer(double ber, int len) const {
  for (const FerMemoEntry& e : fer_memo_) {
    if (e.ber == ber && e.len == len) return e.fer;
  }
  const double f = fer(ber, len);
  // NOLINTNEXTLINE(hot-path-alloc): first contact per (BER, frame length);
  // every later frame with that pair hits the memo scan above.
  fer_memo_.push_back({ber, len, f});
  return f;
}

double ErrorModel::frame_error_prob_slow(int tx, int rx, FrameType type,
                                         int packet_bytes,
                                         double rate_mbps) const {
  const Link* link = find(tx, rx);
  const double base = cached_fer(link_ber(link), error_len(type, packet_bytes));
  if (type != FrameType::kData) return base;
  const double excess = link_excess_fer(link, rate_mbps);
  // Independent corruption sources compose. Kept as one expression even
  // when excess is zero: 1 - (1 - base) is not bit-identical to base for
  // tiny base, and this exact formula is what every figure was frozen on.
  return 1.0 - (1.0 - base) * (1.0 - excess);
}

double ErrorModel::addr_intact_given_corrupt(double ber, int len) {
  if (ber <= 0.0) return 1.0;
  const double p_frame_ok = std::pow(1.0 - ber, len);
  if (p_frame_ok >= 1.0) return 1.0;
  const double p_addr_ok = std::pow(1.0 - ber, 12);
  // P(addr ok AND frame corrupted) = P(addr ok) - P(frame ok), since a
  // fully intact frame implies intact addresses.
  return (p_addr_ok - p_frame_ok) / (1.0 - p_frame_ok);
}

ErrorModel::CorruptionBreakdown ErrorModel::corruption_study(
    Rng& rng, double bit_ber, int frame_bytes, std::int64_t n_frames) {
  CorruptionBreakdown out;
  out.received = n_frames;
  // 802.11 data frame layout: Address1 (destination) at byte offsets 4-9,
  // Address2 (source) at 10-15.
  const int addr_bits = 6 * 8;
  const int other_bits = frame_bytes * 8 - 2 * addr_bits;
  G80211_DCHECK(other_bits > 0);
  const double p_dest_ok = std::pow(1.0 - bit_ber, addr_bits);
  const double p_src_ok = p_dest_ok;
  const double p_rest_ok = std::pow(1.0 - bit_ber, other_bits);
  for (std::int64_t i = 0; i < n_frames; ++i) {
    const bool dest_ok = rng.chance(p_dest_ok);
    const bool src_ok = rng.chance(p_src_ok);
    const bool rest_ok = rng.chance(p_rest_ok);
    const bool corrupted = !(dest_ok && src_ok && rest_ok);
    if (!corrupted) continue;
    ++out.corrupted;
    if (dest_ok) {
      ++out.corrupted_correct_dest;
      if (src_ok) ++out.corrupted_correct_src_dest;
    }
  }
  return out;
}

}  // namespace g80211
