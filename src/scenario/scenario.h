// One-stop simulation builder: owns the scheduler, channel, nodes, traffic
// agents, greedy policies and wired infrastructure for a scenario, wires
// them together, and runs warmup + measurement. Every run is a pure
// function of (configuration, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/greedy/ack_spoofing.h"
#include "src/greedy/fake_ack.h"
#include "src/greedy/nav_inflation.h"
#include "src/net/node.h"
#include "src/net/wired_link.h"
#include "src/phy/channel.h"
#include "src/sim/scheduler.h"
#include "src/transport/cbr.h"
#include "src/transport/tcp_sender.h"
#include "src/transport/tcp_sink.h"
#include "src/transport/udp_sink.h"

namespace g80211 {

struct SimConfig {
  Standard standard = Standard::B80211;
  bool rts_cts = true;
  double default_ber = 0.0;
  double comm_range_m = 0.0;  // <= 0: unlimited
  double cs_range_m = 0.0;    // <= 0: same as comm range
  // Physical capture: <= 0 means every overlap is a collision — the
  // behaviour of the paper's default ns-2 experiments, where same-cell
  // stations have comparable powers. The ACK-spoofing scenarios
  // (Section IV-B) explicitly "consider capture effects" and set this to
  // 10 (ns-2's CPThresh) with a capture-safe topology so a victim's real
  // ACK always beats the attacker's spoof.
  double capture_threshold = 0.0;
  Time warmup = seconds(1);
  Time measure = seconds(10);
  std::uint64_t seed = 1;
};

class Sim {
 public:
  explicit Sim(const SimConfig& cfg);

  Scheduler& scheduler() { return sched_; }
  Channel& channel() { return channel_; }
  const WifiParams& params() const { return params_; }
  const SimConfig& config() const { return cfg_; }
  Rng fork_rng() { return rng_.fork(); }

  Node& add_node(Position pos);
  // Sharded-build variant: the node draws from `rng` instead of forking
  // this sim's root stream, so the node's whole RNG future is a function of
  // (global seed, its cell) and not of how many nodes other shards built
  // first. ShardedSim uses this to make N-shard worlds byte-identical to
  // the 1-shard world.
  Node& add_node(Position pos, Rng rng);
  // Index-based access; only valid while node ids are the default dense
  // 0..n-1 sequence (i.e. set_build_counters() was never used to re-base
  // ids — sharded builders keep their own registry instead).
  Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Pin the id/stagger counters the builder APIs consume next. A BSS built
  // at the same bases produces identical node ids, flow ids and flow start
  // times no matter which Sim (shard) it lands in — the identity
  // ShardedSim's determinism contract rests on. Counters only move
  // forward implicitly; re-basing is the caller's responsibility.
  void set_build_counters(int next_node_id, int next_flow_id,
                          int flows_started);

  // --- flows ---------------------------------------------------------------
  struct UdpFlow {
    int flow_id = 0;
    CbrSource* source = nullptr;
    UdpSink* sink = nullptr;
    double goodput_mbps() const { return sink->goodput_mbps(); }
  };
  // CBR/UDP from src to dst; default rate saturates both PHYs.
  UdpFlow add_udp_flow(Node& src, Node& dst, double rate_mbps = 12.0,
                       int payload_bytes = 1024);
  // Sharded-build variant: explicit source jitter stream (see
  // add_node(pos, rng)).
  UdpFlow add_udp_flow(Node& src, Node& dst, double rate_mbps,
                       int payload_bytes, Rng rng);

  // Piecewise flow assembly for flows whose endpoints live in different
  // Sims (the sharded engine's cross-shard wired flows): the source half
  // and the sink half are created in their own shards and stitched
  // together by the caller's routing/forwarding hooks. `start_at` is
  // explicit — cross-sim flows cannot share one Sim's stagger counter.
  CbrSource& add_cbr_source(Node& src, int flow_id, int dst_node,
                            double rate_mbps, int payload_bytes, Rng rng,
                            Time start_at);
  UdpSink& add_udp_sink(Node& dst, int flow_id, int payload_bytes);

  struct TcpFlow {
    int flow_id = 0;
    TcpSender* sender = nullptr;
    TcpSink* sink = nullptr;
    double goodput_mbps() const { return sink->goodput_mbps(); }
  };
  TcpFlow add_tcp_flow(Node& src, Node& dst,
                       TcpSender::Config cfg = TcpSender::Config{});

  // Remote sender behind a wired link (Fig 15/16): creates the host and the
  // TCP flow host -> dst relayed by `ap`.
  WiredHost& add_wired_host(Node& ap, Time one_way_latency);
  TcpFlow add_remote_tcp_flow(WiredHost& host, Node& ap, Node& dst,
                              TcpSender::Config cfg = TcpSender::Config{});

  // --- greedy policies (owned by the sim) ----------------------------------
  NavInflationPolicy& make_nav_inflator(Node& receiver, NavFrameMask mask,
                                        Time inflation, double gp = 1.0);
  AckSpoofingPolicy& make_ack_spoofer(Node& receiver, double gp = 1.0,
                                      std::set<int> victims = {});
  FakeAckPolicy& make_fake_acker(Node& receiver, double gp = 1.0);

  // Reserve a flow id (for probe streams etc.).
  int reserve_flow_id() { return next_flow_id_++; }

  // Run warmup + measurement. Sinks and TCP statistics reset at the end of
  // warmup, so goodput covers exactly the measurement window.
  void run();
  // Extend the run (callable after run()).
  void run_more(Time extra);

  // Sliced execution for the epoch-driven sharded engine: begin_run()
  // schedules the warmup reset (callable once, like run()), then
  // advance_to() moves the clock forward in lookahead-bounded slices.
  // Slicing is transparent: begin_run() + advance_to(end_time()) executes
  // the exact event sequence of run(), and so does any monotone sequence
  // of horizons ending at end_time() — the scheduler fires events in
  // (time, seq) order regardless of where run_until() pauses.
  void begin_run();
  void advance_to(Time t);
  Time end_time() const { return cfg_.warmup + cfg_.measure; }

 private:
  SimConfig cfg_;
  WifiParams params_;
  Scheduler sched_;
  Rng rng_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<CbrSource>> cbr_sources_;
  std::vector<std::unique_ptr<UdpSink>> udp_sinks_;
  std::vector<std::unique_ptr<TcpSender>> tcp_senders_;
  std::vector<std::unique_ptr<TcpSink>> tcp_sinks_;
  std::vector<std::unique_ptr<GreedyPolicy>> policies_;
  std::vector<std::unique_ptr<WiredLink>> wired_links_;
  std::vector<std::unique_ptr<WiredHost>> wired_hosts_;
  int next_flow_id_ = 1;
  int next_node_id_ = 0;
  int flows_started_ = 0;
  bool ran_ = false;
};

}  // namespace g80211
