// The paper's small all-in-range hotspots, built through the simulator's
// public Sim API, and the printed testbed numbers the model is scored
// against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/mac/mac_stats.h"
#include "src/scenario/scenario.h"

namespace perfbench {

// What one seeded run reports: its outputs (goodputs) and the counters
// the per-layer metrics read, all taken from outside through public
// accessors after the run.
struct SimCounters {
  std::uint64_t events = 0;          // Scheduler::executed
  std::uint64_t pool_slots = 0;      // Scheduler::pool_slots
  std::uint64_t tombstones = 0;      // Scheduler::cancelled_pending
  std::uint64_t link_rebuilds = 0;   // Channel::link_tables_rebuilt
  std::uint64_t senders = 0;         // PHYs that transmitted at least once
  double frames_sent = 0.0;          // summed MAC transmissions
  double receivers_x_frames = 0.0;   // sum of link-table size x frames sent
  g80211::MacStats mac;              // summed over every node

  void merge(const SimCounters& o);
};

// Reads the counters of a finished Sim. Probes Channel::neighbors_of for
// every node, after link_tables_rebuilt has been read.
SimCounters read_counters(g80211::Sim& sim, std::vector<g80211::Node*> nodes);

struct PaperRun {
  std::vector<double> goodput_mbps;  // per flow
  SimCounters counters;
  std::int64_t capture_frames = 0;   // frames journalled at the vantage
  double sim_s = 0.0;                // simulated seconds (warmup + measure)
};

// One point of a paper figure or table: a scenario at one x value.
struct PaperPoint {
  std::string figure;
  std::string label;
  double x = 0.0;
  // Runs the point at `seed`; a non-empty `capture_stem` records a frame
  // capture at the first sender (the G80211_CAPTURE flow of the benches).
  std::function<PaperRun(std::uint64_t seed, const std::string& capture_stem)>
      run;
  bool captures = false;  // this point records a capture when asked
};

// Measured window of every paper point, in simulated seconds.
inline constexpr double kPaperMeasureS = 2.0;

// The paper_campaign grid: Fig 1 (NAV inflation, UDP), Fig 12 (ACK
// spoofing, TCP with bit errors; these points capture), Fig 18 (fake ACKs
// between hidden terminals) and the testbed Tables VI and VII.
std::vector<PaperPoint> campaign_points();

// The subset of campaign_points() with printed testbed numbers.
std::vector<PaperPoint> testbed_points();

// Mean absolute gap (Mb/s) between the per-point median goodputs of
// testbed_points() (in that order) and the paper's Tables VI and VII.
double paper_error_mbps(const std::vector<std::vector<double>>& medians);

}  // namespace perfbench
