// Error model: Table III calibration, per-link overrides, address-survival
// arithmetic, and the Table I corruption study.
#include <gtest/gtest.h>

#include <cmath>

#include "src/phy/error_model.h"

namespace g80211 {
namespace {

TEST(ErrorModel, EffectiveLengthsMatchPaperCalibration) {
  EXPECT_EQ(ErrorModel::error_len(FrameType::kAck, 0), 38);
  EXPECT_EQ(ErrorModel::error_len(FrameType::kCts, 0), 38);
  EXPECT_EQ(ErrorModel::error_len(FrameType::kRts, 0), 44);
  EXPECT_EQ(ErrorModel::error_len(FrameType::kData, 40), 112);     // TCP ACK
  EXPECT_EQ(ErrorModel::error_len(FrameType::kData, 1064), 1136);  // TCP DATA
}

// The paper's Table III, reproduced to its printed precision. The ACK/CTS
// cell at BER 3.2e-4 is a typo in the paper: it implies an error length of
// 35 while every other cell of the column implies exactly 38 (the printed
// 1.121e-2 is presumably a transposition of the correct 1.211e-2), so that
// single cell is checked against the consistent value.
TEST(ErrorModel, Table3ValuesReproduce) {
  const struct {
    double ber;
    double ack_cts, rts, tcp_ack, tcp_data;
  } rows[] = {
      {1e-5, 3.799e-4, 4.399e-4, 1.119e-3, 1.130e-2},
      {2e-4, 7.519e-3, 8.762e-3, 2.235e-2, 2.033e-1},
      {3.2e-4, 1.211e-2, 1.398e-2, 3.521e-2, 3.048e-1},  // see note above
      {4.4e-4, 1.658e-2, 1.918e-2, 4.810e-2, 3.934e-1},
      {8e-4, 2.995e-2, 3.460e-2, 8.574e-2, 5.971e-1},
  };
  for (const auto& r : rows) {
    EXPECT_NEAR(ErrorModel::fer(r.ber, 38), r.ack_cts, r.ack_cts * 0.02) << r.ber;
    EXPECT_NEAR(ErrorModel::fer(r.ber, 44), r.rts, r.rts * 0.02) << r.ber;
    EXPECT_NEAR(ErrorModel::fer(r.ber, 112), r.tcp_ack, r.tcp_ack * 0.02) << r.ber;
    EXPECT_NEAR(ErrorModel::fer(r.ber, 1136), r.tcp_data, r.tcp_data * 0.02) << r.ber;
  }
}

TEST(ErrorModel, FerEdgeCases) {
  EXPECT_DOUBLE_EQ(ErrorModel::fer(0.0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(ErrorModel::fer(1.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ErrorModel::fer(-1.0, 100), 0.0);
}

TEST(ErrorModel, FerMonotoneInBerAndLength) {
  double prev = 0.0;
  for (double ber : {1e-5, 1e-4, 1e-3, 1e-2}) {
    const double f = ErrorModel::fer(ber, 500);
    EXPECT_GT(f, prev);
    prev = f;
  }
  prev = 0.0;
  for (int len : {10, 100, 1000, 10000}) {
    const double f = ErrorModel::fer(1e-4, len);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(ErrorModel, BerForFerInverts) {
  for (double target : {0.01, 0.2, 0.5, 0.8}) {
    const double ber = ErrorModel::ber_for_fer(target, 1136);
    EXPECT_NEAR(ErrorModel::fer(ber, 1136), target, 1e-12);
  }
  EXPECT_DOUBLE_EQ(ErrorModel::ber_for_fer(0.0, 100), 0.0);
}

TEST(ErrorModel, LinkOverridesAreDirected) {
  ErrorModel em;
  em.set_default_ber(1e-4);
  em.set_link_ber(1, 2, 5e-3);
  EXPECT_DOUBLE_EQ(em.ber(1, 2), 5e-3);
  EXPECT_DOUBLE_EQ(em.ber(2, 1), 1e-4);  // reverse direction: default
  EXPECT_DOUBLE_EQ(em.ber(3, 4), 1e-4);
}

TEST(ErrorModel, FrameErrorProbUsesLinkAndType) {
  ErrorModel em;
  em.set_link_ber(0, 1, 2e-4);
  const double data = em.frame_error_prob(0, 1, FrameType::kData, 1064);
  const double ack = em.frame_error_prob(0, 1, FrameType::kAck, 0);
  EXPECT_NEAR(data, 0.2033, 0.005);
  EXPECT_NEAR(ack, 7.519e-3, 2e-4);
  EXPECT_DOUBLE_EQ(em.frame_error_prob(1, 0, FrameType::kData, 1064), 0.0);
}

// The per-(link, length) FER memo must never serve a value computed under
// an old BER landscape: after every setter, frame_error_prob must agree
// bit-for-bit with a freshly constructed model holding the same config.
TEST(ErrorModel, SetLinkBerAfterUseInvalidatesMemo) {
  ErrorModel em;
  em.set_link_ber(0, 1, 2e-4);
  // Prime the memo for several lengths on both an overridden and a
  // default-BER link.
  (void)em.frame_error_prob(0, 1, FrameType::kData, 1064);
  (void)em.frame_error_prob(0, 1, FrameType::kAck, 0);
  (void)em.frame_error_prob(1, 0, FrameType::kData, 1064);

  em.set_link_ber(0, 1, 8e-4);
  em.set_link_ber(1, 0, 1e-5);

  ErrorModel fresh;
  fresh.set_link_ber(0, 1, 8e-4);
  fresh.set_link_ber(1, 0, 1e-5);
  for (FrameType t : {FrameType::kData, FrameType::kAck, FrameType::kRts}) {
    EXPECT_EQ(em.frame_error_prob(0, 1, t, 1064),
              fresh.frame_error_prob(0, 1, t, 1064));
    EXPECT_EQ(em.frame_error_prob(1, 0, t, 1064),
              fresh.frame_error_prob(1, 0, t, 1064));
  }
}

TEST(ErrorModel, SetDefaultBerAfterUseInvalidatesMemo) {
  ErrorModel em;
  em.set_default_ber(1e-5);
  (void)em.frame_error_prob(2, 3, FrameType::kData, 1064);
  em.set_default_ber(2e-4);
  ErrorModel fresh;
  fresh.set_default_ber(2e-4);
  EXPECT_EQ(em.frame_error_prob(2, 3, FrameType::kData, 1064),
            fresh.frame_error_prob(2, 3, FrameType::kData, 1064));
}

TEST(ErrorModel, SetRateLimitAfterUseInvalidatesMemo) {
  ErrorModel em;
  em.set_link_ber(0, 1, 1e-5);
  const double before = em.frame_error_prob(0, 1, FrameType::kData, 1064, 11.0);
  // A rate limit below the frame's rate must raise the corruption
  // probability on the very next query, despite the primed memo.
  em.set_link_rate_limit(0, 1, 5.5, 0.9);
  const double after = em.frame_error_prob(0, 1, FrameType::kData, 1064, 11.0);
  EXPECT_GT(after, 0.9);
  EXPECT_GT(after, before);
  // At or below the limit the BER-only probability is restored exactly.
  EXPECT_EQ(em.frame_error_prob(0, 1, FrameType::kData, 1064, 5.5), before);
}

// Large ids (far past any sequential node numbering) must behave exactly
// like small ones: overrides, the default for unset links, and re-setting
// a BER after the memo is primed.
TEST(ErrorModel, OverflowIdsMatchDensePathBehaviour) {
  const int big = 2000;
  ErrorModel em;
  em.set_default_ber(1e-5);
  em.set_link_ber(0, big, 2e-4);
  EXPECT_DOUBLE_EQ(em.ber(0, big), 2e-4);
  EXPECT_DOUBLE_EQ(em.ber(big, 0), 1e-5);  // reverse direction: default

  ErrorModel dense;
  dense.set_default_ber(1e-5);
  dense.set_link_ber(0, 1, 2e-4);
  EXPECT_EQ(em.frame_error_prob(0, big, FrameType::kData, 1064),
            dense.frame_error_prob(0, 1, FrameType::kData, 1064));

  // Re-setting the BER after use.
  em.set_link_ber(0, big, 8e-4);
  dense.set_link_ber(0, 1, 8e-4);
  EXPECT_EQ(em.frame_error_prob(0, big, FrameType::kData, 1064),
            dense.frame_error_prob(0, 1, FrameType::kData, 1064));
}

TEST(ErrorModel, NegativeIdsAreOrdinaryLinks) {
  ErrorModel em;
  em.set_default_ber(1e-5);
  em.set_link_ber(-3, 1, 2e-4);
  em.set_link_rate_limit(-3, 1, 5.5, 0.9);
  EXPECT_DOUBLE_EQ(em.ber(-3, 1), 2e-4);
  EXPECT_DOUBLE_EQ(em.ber(1, -3), 1e-5);
  EXPECT_DOUBLE_EQ(em.ber(-1, 1), 1e-5);
  EXPECT_EQ(em.rate_excess_fer(-3, 1, 11.0), 0.9);
  EXPECT_EQ(em.rate_excess_fer(1, -3, 11.0), 0.0);

  ErrorModel ref;
  ref.set_default_ber(1e-5);
  ref.set_link_ber(0, 1, 2e-4);
  ref.set_link_rate_limit(0, 1, 5.5, 0.9);
  for (const double rate : {0.0, 5.5, 11.0}) {
    for (FrameType t : {FrameType::kData, FrameType::kAck, FrameType::kRts}) {
      EXPECT_EQ(em.frame_error_prob(-3, 1, t, 1064, rate),
                ref.frame_error_prob(0, 1, t, 1064, rate));
      EXPECT_EQ(em.frame_error_prob(1, -3, t, 1064, rate),
                ref.frame_error_prob(1, 0, t, 1064, rate));
    }
  }
}

TEST(ErrorModel, AddrIntactGivenCorruptBehaves) {
  // Large frames: corruption almost surely lies outside the 12 address
  // bytes, so survival is near 1.
  EXPECT_GT(ErrorModel::addr_intact_given_corrupt(1e-4, 1136), 0.95);
  // As the frame shrinks toward just the addresses, survival falls.
  const double small = ErrorModel::addr_intact_given_corrupt(1e-2, 14);
  const double large = ErrorModel::addr_intact_given_corrupt(1e-2, 1136);
  EXPECT_LT(small, large);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(ErrorModel::addr_intact_given_corrupt(0.0, 100), 1.0);
}

TEST(ErrorModel, CorruptionStudyMatchesTable1Shape) {
  // Table I, 802.11b row: 65536 frames, ~2% corrupted, 98.8% of corrupted
  // keep the destination, 94.9% of those keep the source too.
  Rng rng(42);
  const auto b = ErrorModel::corruption_study(rng, 2.5e-6, 1064, 65536);
  EXPECT_EQ(b.received, 65536);
  EXPECT_GT(b.corrupted, 800);
  EXPECT_LT(b.corrupted, 2500);
  const double dest_frac =
      static_cast<double>(b.corrupted_correct_dest) / static_cast<double>(b.corrupted);
  const double src_dest_frac = static_cast<double>(b.corrupted_correct_src_dest) /
                               static_cast<double>(b.corrupted_correct_dest);
  EXPECT_GT(dest_frac, 0.95);
  EXPECT_GT(src_dest_frac, 0.95);
}

TEST(ErrorModel, CorruptionStudyHighLossStillPreservesMostAddresses) {
  // Table I, 802.11a row: ~32% corrupted; 84% keep dest, 91% of those keep
  // src — address survival drops but stays dominant.
  Rng rng(43);
  const auto a = ErrorModel::corruption_study(rng, 4.5e-5, 1064, 23068);
  const double corrupted_frac =
      static_cast<double>(a.corrupted) / static_cast<double>(a.received);
  EXPECT_GT(corrupted_frac, 0.2);
  EXPECT_LT(corrupted_frac, 0.45);
  const double dest_frac =
      static_cast<double>(a.corrupted_correct_dest) / static_cast<double>(a.corrupted);
  EXPECT_GT(dest_frac, 0.75);
  EXPECT_LT(dest_frac, 1.0);
}

TEST(ErrorModel, CorruptionStudyInvariants) {
  Rng rng(44);
  const auto r = ErrorModel::corruption_study(rng, 1e-5, 256, 2000);
  EXPECT_LE(r.corrupted, r.received);
  EXPECT_LE(r.corrupted_correct_dest, r.corrupted);
  EXPECT_LE(r.corrupted_correct_src_dest, r.corrupted_correct_dest);
}

}  // namespace
}  // namespace g80211
