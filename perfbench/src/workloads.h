// The four benchmark workloads. Each one is a sequence of episodes; an
// episode sets the workload up (timed as setup), runs its steps (timed one
// by one), then checks every step's digest and the workload's mechanism
// guard (untimed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

struct Step {
  double ms = 0.0;
  std::uint64_t digest = 0;
  bool ok = true;  // false: the step disagreed with its reference
};

// A throughput unit of a workload (a city window, a world run, a campaign
// round, an episode's monitor passes): the simulated seconds it covered
// and the wall time it took.
struct Unit {
  double sim_s = 0.0;
  double wall_s = 0.0;
};

struct Episode {
  double setup_s = 0.0;
  std::vector<Step> steps;
  // In the same order in every episode, like the steps.
  std::vector<Unit> units;
  std::string guard_failure;  // empty when the mechanism guard held
};

// Per-layer metric values by name.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Untimed: generate the seed's inputs and any reference results.
  virtual void prepare() {}
  // One episode; spans go to `t` when it is enabled.
  virtual Episode episode(Tracer& t) = 0;
  // Per-layer metrics from the spans of traced episodes and the counters
  // of the last episode.
  virtual void layers(const Tracer& t, LayerMetrics& out) = 0;
};

// `probe` selects the small size the traced run uses to measure the
// layers of the other workloads.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir,
                                        bool probe);

extern const char* const kWorkloads[4];

// Model accuracy at `seed`: runs the testbed points of the campaign grid
// (5 seeds each, 2 jobs) and scores their medians against the paper.
double paper_error_at_seed(std::uint64_t seed);

}  // namespace perfbench
