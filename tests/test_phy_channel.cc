// Channel + PHY: carrier-sense edges, reception, capture, collisions,
// range semantics, half-duplex behaviour, BER corruption delivery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/phy/channel.h"
#include "src/phy/phy.h"
#include "src/sim/scheduler.h"

namespace g80211 {
namespace {

struct RecordingListener : PhyListener {
  struct Rx {
    Frame frame;
    RxInfo info;
  };
  std::vector<Rx> received;
  int busy_edges = 0;
  int idle_edges = 0;
  int tx_ends = 0;

  void on_rx_end(const Frame& f, const RxInfo& i) override {
    received.push_back({f, i});
  }
  void on_channel_busy() override { ++busy_edges; }
  void on_channel_idle() override { ++idle_edges; }
  void on_tx_end() override { ++tx_ends; }
};

class PhyChannelTest : public ::testing::Test {
 protected:
  PhyChannelTest() : channel_(sched_, WifiParams::b11()) {}

  Phy& add_phy(int id, Position pos) {
    phys_.push_back(std::make_unique<Phy>(channel_, id, pos, Rng(100 + id)));
    listeners_.push_back(std::make_unique<RecordingListener>());
    phys_.back()->set_listener(listeners_.back().get());
    // Disable RSSI measurement noise for exact assertions.
    phys_.back()->rssi_noise_db = 0.0;
    phys_.back()->rssi_outlier_prob = 0.0;
    return *phys_.back();
  }
  RecordingListener& listener(std::size_t i) { return *listeners_[i]; }

  Frame data_frame(int ta, int ra) {
    Frame f;
    f.type = FrameType::kData;
    f.ta = ta;
    f.ra = ra;
    f.packet = make_packet();
    f.packet->size_bytes = 1064;
    return f;
  }

  Scheduler sched_;
  Channel channel_;
  std::vector<std::unique_ptr<Phy>> phys_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

TEST_F(PhyChannelTest, CleanReceptionDeliversUncorrupted) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  auto& l = listener(1);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_FALSE(l.received[0].info.corrupted);
  EXPECT_EQ(l.received[0].frame.ta, 0);
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
  EXPECT_EQ(l.received[0].info.end - l.received[0].info.start, microseconds(500));
}

TEST_F(PhyChannelTest, BusyIdleEdgesFireOnceEach) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).busy_edges, 1);
  EXPECT_EQ(listener(1).idle_edges, 1);
  // The transmitter sees its own busy period and tx_end.
  EXPECT_EQ(listener(0).busy_edges, 1);
  EXPECT_EQ(listener(0).idle_edges, 1);
  EXPECT_EQ(listener(0).tx_ends, 1);
}

TEST_F(PhyChannelTest, PromiscuousDeliveryRegardlessOfAddressing) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {6, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).received.size(), 1u);
  EXPECT_EQ(listener(2).received.size(), 1u);  // sniffed someone else's frame
}

TEST_F(PhyChannelTest, OutOfCommRangeNotDelivered) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {70, 0});   // CS range only
  add_phy(2, {150, 0});  // out of everything
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty());
  EXPECT_EQ(listener(1).busy_edges, 1);  // still senses the energy
  EXPECT_TRUE(listener(2).received.empty());
  EXPECT_EQ(listener(2).busy_edges, 0);
}

TEST_F(PhyChannelTest, CsRangeDefaultsToCommRange) {
  channel_.set_ranges(50.0, 0.0);
  EXPECT_DOUBLE_EQ(channel_.cs_range_m(), 50.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {60, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).busy_edges, 0);
}

TEST_F(PhyChannelTest, OverlappingComparablePowersCollide) {
  // Two transmitters equidistant from the receiver: power ratio 1 << 10.
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {20, 0});
  add_phy(2, {10, 0});
  a.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    b.transmit(data_frame(1, 2), microseconds(500));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);  // only the first is tracked as current
  EXPECT_TRUE(l.received[0].info.corrupted);
  EXPECT_TRUE(l.received[0].info.collided);
}

TEST_F(PhyChannelTest, StrongFirstFrameSurvivesWeakInterferer) {
  Phy& strong = add_phy(0, {9, 0});   // 1 m from receiver
  Phy& weak = add_phy(1, {60, 0});    // 50 m away: Friis ratio 2500 >> 10
  add_phy(2, {10, 0});
  strong.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    weak.transmit(data_frame(1, 2), microseconds(500));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_FALSE(l.received[0].info.corrupted) << "capture should save the frame";
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
}

TEST_F(PhyChannelTest, StrongLateFrameCapturesReceiver) {
  Phy& weak = add_phy(0, {60, 0});
  Phy& strong = add_phy(1, {9, 0});
  add_phy(2, {10, 0});
  weak.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    strong.transmit(data_frame(1, 2), microseconds(300));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_EQ(l.received[0].frame.true_tx, 1) << "stronger frame captures";
  EXPECT_FALSE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, CaptureDisabledMakesEveryOverlapCollide) {
  channel_.capture_threshold = 0.0;  // ablation knob
  Phy& strong = add_phy(0, {9, 0});
  Phy& weak = add_phy(1, {60, 0});
  add_phy(2, {10, 0});
  strong.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    weak.transmit(data_frame(1, 2), microseconds(300));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_TRUE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, SimultaneousAcksResolveByCapture) {
  // The spoofed-ACK situation: two ACKs start at the same instant; the
  // closer transmitter wins at the receiver.
  Phy& near = add_phy(0, {2, 0});
  Phy& far = add_phy(1, {30, 0});
  add_phy(2, {0, 0});
  Frame ack;
  ack.type = FrameType::kAck;
  ack.ra = 2;
  const Time t = microseconds(50);
  sched_.at(t, [&] { near.transmit(ack, microseconds(304)); });
  sched_.at(t, [&] { far.transmit(ack, microseconds(304)); });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
  EXPECT_FALSE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, TransmitterMissesFramesWhileTransmitting) {
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {10, 0});
  a.transmit(data_frame(0, 1), microseconds(500));
  sched_.at(microseconds(10), [&] {
    b.transmit(data_frame(1, 0), microseconds(100));
  });
  sched_.run();
  EXPECT_TRUE(listener(0).received.empty()) << "half duplex: tx cannot rx";
}

TEST_F(PhyChannelTest, TransmitAbortsInProgressReception) {
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {10, 0});
  a.transmit(data_frame(0, 1), microseconds(500));
  sched_.at(microseconds(50), [&] {
    b.transmit(data_frame(1, 0), microseconds(100));
  });
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty()) << "own tx stomped the rx";
}

TEST_F(PhyChannelTest, BerCorruptionIsDeliveredAsCorrupted) {
  channel_.error_model().set_default_ber(1.0);  // every frame corrupts
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  auto& l = listener(1);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_TRUE(l.received[0].info.corrupted);
  EXPECT_FALSE(l.received[0].info.collided);
}

TEST_F(PhyChannelTest, PerLinkBerOnlyAffectsThatLink) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {6, 0});
  channel_.error_model().set_link_ber(0, 1, 1.0);
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received[0].info.corrupted);
  EXPECT_FALSE(listener(2).received[0].info.corrupted);
}

TEST_F(PhyChannelTest, RssiReflectsDistanceOrdering) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {50, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  ASSERT_EQ(listener(1).received.size(), 1u);
  ASSERT_EQ(listener(2).received.size(), 1u);
  EXPECT_GT(listener(1).received[0].info.rssi_dbm,
            listener(2).received[0].info.rssi_dbm);
  // Noise-free RSSI equals the true received power in dBm.
  EXPECT_NEAR(listener(1).received[0].info.rssi_dbm,
              watts_to_dbm(listener(1).received[0].info.rss_w), 1e-9);
}

TEST_F(PhyChannelTest, InterferenceSumSurvivesOverlapChurn) {
  // Three comparable-power frames pile up and drain one by one; the
  // receiver's running interference sum must flag the pile-up as a
  // collision and then read exactly zero again, so a later lone frame
  // decodes cleanly (a stale positive residue would mark it collided).
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {20, 0});
  Phy& c = add_phy(2, {10, 11});
  add_phy(3, {10, 0});
  a.transmit(data_frame(0, 3), microseconds(500));
  sched_.at(microseconds(100), [&] {
    b.transmit(data_frame(1, 3), microseconds(500));
  });
  sched_.at(microseconds(200), [&] {
    c.transmit(data_frame(2, 3), microseconds(500));
  });
  sched_.at(milliseconds(2), [&] {
    a.transmit(data_frame(0, 3), microseconds(500));
  });
  sched_.run();
  auto& l = listener(3);
  ASSERT_EQ(l.received.size(), 2u);
  EXPECT_TRUE(l.received[0].info.collided) << "triple overlap must collide";
  EXPECT_FALSE(l.received[1].info.corrupted)
      << "clean frame after the channel drained must decode";
  EXPECT_EQ(l.received[1].frame.true_tx, 0);
}

TEST_F(PhyChannelTest, LinkTableServedFromCacheUntilTopologyChanges) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  const auto& warm = channel_.neighbors_of(&tx);
  ASSERT_EQ(warm.size(), 1u);
  const std::uint64_t rebuilds = channel_.link_tables_rebuilt();
  // Repeated queries and repeated transmissions reuse the table.
  channel_.neighbors_of(&tx);
  tx.transmit(data_frame(0, 1), microseconds(200));
  sched_.run();
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds);
  // A no-op move (zero-velocity mobility tick) must keep the cache warm.
  tx.set_position({0, 0});
  channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds);
}

TEST_F(PhyChannelTest, MovedNodeMatchesFreshlyBuiltChannel) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {10, 0});
  Phy& roamer = add_phy(2, {200, 0});  // out of sensing range entirely
  ASSERT_EQ(channel_.neighbors_of(&tx).size(), 1u);  // warm the cache
  const std::uint64_t rebuilds = channel_.link_tables_rebuilt();

  // Mid-simulation move into decode range must invalidate the warm table.
  roamer.set_position({20, 0});
  const auto& cached = channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds + 1);

  // The rebuilt table must be indistinguishable from a channel built from
  // scratch at the post-move positions: same membership, same order, same
  // rx power bits, same decodability.
  Scheduler sched2;
  Channel chan2(sched2, WifiParams::b11());
  chan2.set_ranges(50.0, 100.0);
  Phy t2(chan2, 0, {0, 0}, Rng(100));
  Phy n2(chan2, 1, {10, 0}, Rng(101));
  Phy r2(chan2, 2, {20, 0}, Rng(102));
  const auto& fresh = chan2.neighbors_of(&t2);
  ASSERT_EQ(cached.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(cached.rx[i]->id(), fresh.rx[i]->id());
    EXPECT_EQ(cached.power_w[i], fresh.power_w[i]);
    EXPECT_EQ(cached.power_dbm[i], fresh.power_dbm[i]);
    EXPECT_EQ(cached.decodable[i], fresh.decodable[i]);
  }

  // And the full delivery path agrees: the roamer now receives.
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  ASSERT_EQ(listener(2).received.size(), 1u);
  EXPECT_FALSE(listener(2).received[0].info.corrupted);
}

TEST_F(PhyChannelTest, MovedOutOfRangeNodeLeavesSensedSet) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  Phy& leaver = add_phy(1, {10, 0});
  ASSERT_EQ(channel_.neighbors_of(&tx).size(), 1u);
  leaver.set_position({500, 0});
  EXPECT_TRUE(channel_.neighbors_of(&tx).empty());
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty());
  EXPECT_EQ(listener(1).busy_edges, 0);
}

TEST_F(PhyChannelTest, PropagationChangeInvalidatesCachedRxPower) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  const double before = channel_.neighbors_of(&tx).power_w[0];
  channel_.propagation().set_tx_power_w(channel_.propagation().tx_power_w() * 2.0);
  const double after = channel_.neighbors_of(&tx).power_w[0];
  EXPECT_EQ(after, 2.0 * before) << "cached rx power must track tx power";
}

// Reference link table: the per-frame walk transmit() did before link
// tables existed — distance, range rules and propagation math redone from
// positions, over every attached PHY in attach order.
struct RefLink {
  const Phy* rx;
  double power_w;
  double power_dbm;
  bool decodable;
};

std::vector<RefLink> reference_walk(Channel& channel, const Phy* sender) {
  std::vector<RefLink> out;
  for (const Phy* rx : channel.phys()) {
    if (rx == sender) continue;
    const double d = distance(sender->position(), rx->position());
    if (!channel.sensed_at(d)) continue;
    const double p = channel.propagation().rx_power_w(d);
    out.push_back({rx, p, watts_to_dbm(p), channel.decodable_at(d)});
  }
  return out;
}

// Every sender's cached link table must equal the reference walk: same
// receivers in attach order, bit-equal powers, same decodability. Mixed
// topology (in comm range, interference band only, out of sensing range),
// checked as built and again after each kind of invalidation: a move, a
// range change and a tx-power change.
TEST_F(PhyChannelTest, LinkTablesMatchTheReferenceWalk) {
  channel_.set_ranges(50.0, 100.0);
  const Position pos[] = {{0, 0},  {10, 0},  {30, 0},
                          {70, 0},  // interference band: sensed only
                          {150, 0},  // out of sensing range entirely
                          {40, 30}};
  for (int id = 0; id < 6; ++id) add_phy(id, pos[id]);

  auto expect_tables_match = [&](const char* when) {
    SCOPED_TRACE(when);
    for (const auto& sender : phys_) {
      SCOPED_TRACE("sender " + std::to_string(sender->id()));
      const NeighborSoA& t = channel_.neighbors_of(sender.get());
      const std::vector<RefLink> ref = reference_walk(channel_, sender.get());
      ASSERT_EQ(t.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(t.rx[i], ref[i].rx);
        EXPECT_EQ(t.power_w[i], ref[i].power_w);
        EXPECT_EQ(t.power_dbm[i], ref[i].power_dbm);
        EXPECT_EQ(t.decodable[i] != 0, ref[i].decodable);
      }
    }
  };

  expect_tables_match("as built");
  phys_[4]->set_position({60, 0});  // out of range -> interference band
  expect_tables_match("after a move");
  channel_.set_ranges(35.0, 80.0);
  expect_tables_match("after set_ranges");
  channel_.propagation().set_tx_power_w(channel_.propagation().tx_power_w() *
                                        3.0);
  expect_tables_match("after a tx-power change");
}

TEST_F(PhyChannelTest, BackToBackTransmissionsBothDelivered) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(200));
  sched_.at(microseconds(300), [&] {
    tx.transmit(data_frame(0, 1), microseconds(200));
  });
  sched_.run();
  EXPECT_EQ(listener(1).received.size(), 2u);
  EXPECT_EQ(listener(1).busy_edges, 2);
  EXPECT_EQ(listener(1).idle_edges, 2);
}

}  // namespace
}  // namespace g80211
