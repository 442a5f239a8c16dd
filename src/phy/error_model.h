// Frame error model.
//
// The paper injects "random loss of bit-error-rate (BER)" in ns-2, and its
// Table III lists the resulting frame error rates. Those FERs fit
// FER = 1 - (1 - BER)^L exactly with effective error lengths
//   L(ACK/CTS) = 38, L(RTS) = 44, L(data frame) = packet + 72
// (packet = payload + 40 B IP/transport headers; e.g. TCP DATA = 1136,
// TCP ACK = 112). We adopt those constants so Table III — and every
// BER-parameterised experiment — reproduces on the paper's own scale.
//
// Per-link overrides support the paper's asymmetric-loss experiments
// ("inject random loss to only one flow").
//
// Storage: the overrides live in one sparse map keyed by the directed link,
// so node ids are unbounded (negative ones included) and memory grows with
// the number of overridden links, not with the largest id. One lookup per
// reception serves the BER, the rate limit and the FER memo.
// frame_error_prob() memoises fer(ber, len) on the value pair: fer is a
// pure function, so an entry can never go stale and the setters have
// nothing to invalidate. The pow is paid once per distinct (BER, frame
// length), typically one BER and a few lengths.
//
// The header-corruption study (Table I) is separate: it uses a true
// per-bit model over the 802.11 frame layout to show that corrupted frames
// usually preserve src/dst MAC addresses.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/mac/frame.h"
#include "src/sim/rng.h"

namespace g80211 {

class ErrorModel {
 public:
  // Effective error length (see header comment).
  static int error_len(FrameType type, int packet_bytes);
  // FER = 1 - (1-ber)^len.
  static double fer(double ber, int len);
  // BER required for a target FER at length `len` (inverse of fer()).
  static double ber_for_fer(double target_fer, int len);

  void set_default_ber(double ber);
  // Loss on the directed link tx -> rx only.
  void set_link_ber(int tx, int rx, double ber);
  double ber(int tx, int rx) const { return link_ber(find(tx, rx)); }

  // Rate-dependent channel quality (auto-rate substrate): DATA frames sent
  // above the link's highest "good" PHY rate are corrupted with
  // `excess_fer` instead of the BER-derived probability — the cliff a rate
  // controller must find. Unset links support every rate.
  void set_link_rate_limit(int tx, int rx, double max_good_rate_mbps,
                           double excess_fer = 0.9);
  // FER contribution of sending at `rate_mbps` on this link (0 if allowed).
  double rate_excess_fer(int tx, int rx, double rate_mbps) const {
    return link_excess_fer(find(tx, rx), rate_mbps);
  }

  // Probability that a frame on link tx->rx with packet payload
  // `packet_bytes` arrives corrupted. `rate_mbps` only matters for DATA
  // frames on rate-limited links (0 = default rate, always allowed).
  double frame_error_prob(int tx, int rx, FrameType type, int packet_bytes,
                          double rate_mbps = 0.0) const {
    // All-zero fast path: with every BER at 0 and no rate limits the full
    // computation is exactly fer(0, len) = 1 - pow(1, len) = 0.0 and the
    // compose step 1 - (1-0)(1-0) = 0.0 — bit-identical to returning 0.0.
    // This is the loss-free configuration most scenarios (and the hotspot
    // benchmarks) run in, so it skips the memo scan per reception.
    if (trivial_) return 0.0;
    return frame_error_prob_slow(tx, rx, type, packet_bytes, rate_mbps);
  }

  // Given that a frame was corrupted by bit errors, the probability its
  // 12 address bytes are all intact:
  //   P(addr ok | >=1 error) = ((1-ber)^12 - (1-ber)^L) / (1 - (1-ber)^L).
  static double addr_intact_given_corrupt(double ber, int len);

  // Corrupted-by-collision frames: fraction with decodable addresses
  // (header often precedes the interferer's arrival). Default matches the
  // paper's measured 84-95% range.
  double collision_addr_intact_prob = 0.9;

  // --- Table I: Monte-Carlo header corruption study -----------------------
  struct CorruptionBreakdown {
    std::int64_t received = 0;
    std::int64_t corrupted = 0;
    std::int64_t corrupted_correct_dest = 0;
    std::int64_t corrupted_correct_src_dest = 0;
  };
  // Transmit `n_frames` frames of `frame_bytes` through a true per-bit BER
  // channel; classify corrupted frames by whether the destination bytes
  // (offsets 4-9) and source bytes (offsets 10-15) survived.
  static CorruptionBreakdown corruption_study(Rng& rng, double bit_ber,
                                              int frame_bytes,
                                              std::int64_t n_frames);

 private:
  struct RateLimit {
    // +infinity = no limit configured (so an explicit limit of 0 — "every
    // rate is bad" — stays representable).
    double max_good_rate_mbps = std::numeric_limits<double>::infinity();
    double excess_fer = 0.9;
  };
  // Overrides of one directed link. NaN ber = the link uses the default.
  struct Link {
    double ber = std::numeric_limits<double>::quiet_NaN();
    RateLimit rate;
  };
  struct FerMemoEntry {
    double ber;
    int len;
    double fer;
  };

  const Link* find(int tx, int rx) const {
    const auto it = links_.find({tx, rx});
    return it == links_.end() ? nullptr : &it->second;
  }
  double link_ber(const Link* link) const {
    return link != nullptr && !std::isnan(link->ber) ? link->ber : default_ber_;
  }
  static double link_excess_fer(const Link* link, double rate_mbps) {
    if (link == nullptr || rate_mbps <= 0.0) return 0.0;
    return rate_mbps > link->rate.max_good_rate_mbps ? link->rate.excess_fer
                                                     : 0.0;
  }
  double cached_fer(double ber, int len) const;
  double frame_error_prob_slow(int tx, int rx, FrameType type,
                               int packet_bytes, double rate_mbps) const;

  double default_ber_ = 0.0;
  // True while no setter has ever introduced a nonzero BER or any rate
  // limit, i.e. frame_error_prob is identically 0.0. Conservative: once
  // cleared it stays cleared (re-zeroing a BER keeps the slow path, which
  // computes the same 0.0 — correctness never depends on re-arming it).
  bool trivial_ = true;
  std::map<std::pair<int, int>, Link> links_;
  mutable std::vector<FerMemoEntry> fer_memo_;
};

}  // namespace g80211
