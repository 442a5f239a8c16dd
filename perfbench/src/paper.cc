#include "perfbench/src/paper.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "src/capture/capture_writer.h"
#include "src/scenario/topology.h"

namespace perfbench {

using namespace g80211;

namespace {

void add_mac_stats(MacStats& into, const MacStats& m) {
  into.rts_sent += m.rts_sent;
  into.data_sent += m.data_sent;
  into.data_retries += m.data_retries;
  into.data_success += m.data_success;
  into.data_dropped += m.data_dropped;
  into.cts_sent += m.cts_sent;
  into.acks_sent += m.acks_sent;
  into.spoofed_acks_sent += m.spoofed_acks_sent;
  into.fake_acks_sent += m.fake_acks_sent;
  into.rx_data_ok += m.rx_data_ok;
  into.rx_corrupted += m.rx_corrupted;
}

}  // namespace

void SimCounters::merge(const SimCounters& o) {
  events += o.events;
  pool_slots = std::max(pool_slots, o.pool_slots);
  tombstones += o.tombstones;
  link_rebuilds += o.link_rebuilds;
  senders += o.senders;
  frames_sent += o.frames_sent;
  receivers_x_frames += o.receivers_x_frames;
  add_mac_stats(mac, o.mac);
}

SimCounters read_counters(Sim& sim, std::vector<Node*> nodes) {
  SimCounters c;
  Scheduler& sched = sim.scheduler();
  c.events = sched.executed();
  c.pool_slots = sched.pool_slots();
  c.tombstones = sched.cancelled_pending();
  c.link_rebuilds = sim.channel().link_tables_rebuilt();
  for (Node* n : nodes) {
    const MacStats& m = n->mac().stats();
    const double frames = static_cast<double>(
        m.rts_sent + m.data_sent + m.cts_sent + m.acks_sent +
        m.spoofed_acks_sent + m.fake_acks_sent);
    add_mac_stats(c.mac, m);
    if (frames > 0) {
      ++c.senders;
      c.frames_sent += frames;
      c.receivers_x_frames +=
          frames * static_cast<double>(sim.channel().neighbors_of(&n->phy()).size());
    }
  }
  return c;
}

namespace {

SimConfig paper_config(Standard standard, std::uint64_t seed) {
  SimConfig cfg;
  cfg.standard = standard;
  cfg.rts_cts = true;
  cfg.measure = seconds(kPaperMeasureS);
  cfg.seed = seed;
  return cfg;
}

// N sender->receiver pairs, all in range; `customize` installs the
// misbehaviour on the receivers.
PaperRun run_pairs(SimConfig cfg, bool tcp,
                   const std::function<void(Sim&, std::vector<Node*>&)>& customize,
                   const std::string& capture_stem) {
  Sim sim(cfg);
  const PairLayout layout = pairs_in_range(2);
  std::vector<Node*> senders, receivers;
  for (const Position& p : layout.senders) senders.push_back(&sim.add_node(p));
  for (const Position& p : layout.receivers) receivers.push_back(&sim.add_node(p));
  std::vector<Sim::TcpFlow> tcp_flows;
  std::vector<Sim::UdpFlow> udp_flows;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (tcp) {
      tcp_flows.push_back(sim.add_tcp_flow(*senders[i], *receivers[i]));
    } else {
      udp_flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i], 12.0));
    }
  }
  if (customize) customize(sim, receivers);
  std::unique_ptr<CaptureWriter> capture;
  if (!capture_stem.empty()) {
    capture = std::make_unique<CaptureWriter>(sim.scheduler(), capture_stem);
    capture->attach(senders[0]->mac());
  }
  sim.run();
  PaperRun out;
  if (capture) {
    capture->close();
    out.capture_frames = capture->frames_written();
  }
  for (std::size_t i = 0; i < senders.size(); ++i) {
    out.goodput_mbps.push_back(tcp ? tcp_flows[i].goodput_mbps()
                                   : udp_flows[i].goodput_mbps());
  }
  std::vector<Node*> all = senders;
  all.insert(all.end(), receivers.begin(), receivers.end());
  out.counters = read_counters(sim, all);
  out.sim_s = to_seconds(sim.end_time());
  return out;
}

// Two pairs whose senders cannot sense each other; receivers hear both.
PaperRun run_hidden(double fake_gp_r2, std::uint64_t seed) {
  const HiddenPairsLayout layout = hidden_pairs();
  SimConfig cfg = paper_config(Standard::B80211, seed);
  cfg.rts_cts = false;  // the paper disables RTS/CTS to create collisions
  cfg.comm_range_m = layout.comm_range_m;
  cfg.cs_range_m = layout.cs_range_m;
  Sim sim(cfg);
  std::vector<Node*> nodes = {
      &sim.add_node(layout.senders[0]), &sim.add_node(layout.senders[1]),
      &sim.add_node(layout.receivers[0]), &sim.add_node(layout.receivers[1])};
  auto f1 = sim.add_udp_flow(*nodes[0], *nodes[2]);
  auto f2 = sim.add_udp_flow(*nodes[1], *nodes[3]);
  if (fake_gp_r2 > 0) sim.make_fake_acker(*nodes[3], fake_gp_r2);
  sim.run();
  PaperRun out;
  out.goodput_mbps = {f1.goodput_mbps(), f2.goodput_mbps()};
  out.counters = read_counters(sim, nodes);
  out.sim_s = to_seconds(sim.end_time());
  return out;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::vector<PaperPoint> fig1_points() {
  std::vector<PaperPoint> out;
  for (double ms : {0.0, 0.2, 0.6, 2.0, 31.0}) {
    const Time inflation = microseconds(static_cast<std::int64_t>(ms * 1000));
    out.push_back({"fig1", fmt(ms), ms,
                   [inflation](std::uint64_t seed, const std::string& stem) {
                     return run_pairs(
                         paper_config(Standard::B80211, seed), false,
                         [inflation](Sim& sim, std::vector<Node*>& rx) {
                           if (inflation > 0) {
                             sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(),
                                                   inflation);
                           }
                         },
                         stem);
                   }});
  }
  return out;
}

std::vector<PaperPoint> fig12_points() {
  std::vector<PaperPoint> out;
  for (int gp : {0, 20, 60, 100}) {
    out.push_back({"fig12", std::to_string(gp), static_cast<double>(gp),
                   [gp](std::uint64_t seed, const std::string& stem) {
                     SimConfig cfg = paper_config(Standard::B80211, seed);
                     cfg.default_ber = 2e-4;
                     cfg.capture_threshold = 10.0;
                     return run_pairs(
                         cfg, true,
                         [gp](Sim& sim, std::vector<Node*>& rx) {
                           if (gp > 0) {
                             sim.make_ack_spoofer(*rx[1], gp / 100.0, {rx[0]->id()});
                           }
                         },
                         stem);
                   },
                   true});
  }
  return out;
}

std::vector<PaperPoint> fig18_points() {
  std::vector<PaperPoint> out;
  for (int gp : {0, 50, 100}) {
    out.push_back({"fig18", std::to_string(gp), static_cast<double>(gp),
                   [gp](std::uint64_t seed, const std::string&) {
                     return run_hidden(gp / 100.0, seed);
                   }});
  }
  return out;
}

}  // namespace

std::vector<PaperPoint> testbed_points() {
  std::vector<PaperPoint> out;
  // Table VI: TCP, the greedy receiver inflates the NAV of its RTS frames
  // to the maximum; 802.11a. x = 0 honest, 1 attacked.
  for (int attacked : {0, 1}) {
    out.push_back({"table6", attacked ? "gr" : "honest",
                   static_cast<double>(attacked),
                   [attacked](std::uint64_t seed, const std::string& stem) {
                     return run_pairs(
                         paper_config(Standard::A80211, seed), true,
                         [attacked](Sim& sim, std::vector<Node*>& rx) {
                           if (attacked) {
                             NavFrameMask mask;
                             mask.rts = true;
                             sim.make_nav_inflator(*rx[1], mask, WifiParams::kMaxNav);
                           }
                         },
                         stem);
                   }});
  }
  // Table VII: UDP, maximum NAV injected on ACK (no RTS/CTS), on CTS, and
  // on CTS+ACK (with RTS/CTS); 802.11a.
  struct Row {
    const char* label;
    bool rts_cts;
    NavFrameMask mask;
  };
  const Row rows[] = {
      {"ack", false, NavFrameMask::ack_only()},
      {"cts", true, NavFrameMask::cts_only()},
      {"cts_ack", true, {.cts = true, .ack = true}},
  };
  for (int i = 0; i < 3; ++i) {
    const Row row = rows[i];
    out.push_back({"table7", row.label, static_cast<double>(i),
                   [row](std::uint64_t seed, const std::string& stem) {
                     SimConfig cfg = paper_config(Standard::A80211, seed);
                     cfg.rts_cts = row.rts_cts;
                     return run_pairs(
                         cfg, false,
                         [row](Sim& sim, std::vector<Node*>& rx) {
                           sim.make_nav_inflator(*rx[1], row.mask, WifiParams::kMaxNav);
                         },
                         stem);
                   }});
  }
  return out;
}

std::vector<PaperPoint> campaign_points() {
  std::vector<PaperPoint> out = fig1_points();
  for (auto* part : {&fig12_points, &fig18_points, &testbed_points}) {
    for (PaperPoint& p : part()) out.push_back(std::move(p));
  }
  return out;
}

double paper_error_mbps(const std::vector<std::vector<double>>& medians) {
  // Printed testbed goodputs (Mb/s), flow order {normal, greedy}, as
  // EXPERIMENTS.md quotes them. Table VI gives exact cells; Table VII gives
  // ranges over its three rows, so a measured value inside the range has
  // no gap. A range is {lo, hi}; an exact cell has lo == hi.
  struct Cell {
    double lo, hi;
  };
  const std::vector<std::vector<Cell>> paper = {
      {{2.28, 2.28}, {2.51, 2.51}},  // Table VI, no greedy receiver
      {{0.04, 0.04}, {4.41, 4.41}},  // Table VI, greedy receiver
      {{0.05, 0.08}, {4.65, 4.94}},  // Table VII, NAV on ACK
      {{0.05, 0.08}, {4.65, 4.94}},  // Table VII, NAV on CTS
      {{0.05, 0.08}, {4.65, 4.94}},  // Table VII, NAV on CTS+ACK
  };
  if (medians.size() != paper.size()) {
    throw std::invalid_argument("paper_error_mbps: wrong number of points");
  }
  double sum = 0.0;
  int n = 0;
  for (std::size_t p = 0; p < paper.size(); ++p) {
    for (std::size_t f = 0; f < paper[p].size(); ++f) {
      const double v = medians[p].at(f);
      const Cell c = paper[p][f];
      sum += v < c.lo ? c.lo - v : (v > c.hi ? v - c.hi : 0.0);
      ++n;
    }
  }
  return sum / n;
}

}  // namespace perfbench
