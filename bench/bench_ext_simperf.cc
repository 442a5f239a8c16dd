// Simulator performance: wall-clock cost of simulated time across
// scenario sizes — the practical number a user needs to size parameter
// sweeps. Unlike the per-figure benches (Iterations(1) experiment
// drivers), these are real google-benchmark timings.
//
// A committed baseline lives in BENCH_simperf.json; run
// bench/compare_simperf.py after touching the engine to catch
// regressions (>15% fails).
#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench/common.h"
#include "bench/perf_counters.h"
#include "src/scenario/sharded.h"
#include "src/sim/scheduler.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Simulated seconds covered by one benchmark iteration of `cfg` — derived
// from the config so changing warmup/measure cannot silently skew the
// sim_seconds_per_wall_second rate.
double sim_span_seconds(const SimConfig& cfg) {
  return to_seconds(cfg.warmup + cfg.measure);
}

// Attach the perf_event_open attribution counters. perf_hw_available is
// always present (0/1) so readers can tell "no PMU on this box" from
// "forgot to record"; the per-event rates appear only when their counter
// was actually live.
void report_perf(benchmark::State& state, const PerfCounters& pc,
                 std::uint64_t events) {
  state.counters["perf_hw_available"] =
      benchmark::Counter(pc.hw_available() ? 1.0 : 0.0);
  if (events == 0) return;
  const double ev = static_cast<double>(events);
  if (pc.hw_available()) {
    state.counters["cycles_per_event"] =
        benchmark::Counter(static_cast<double>(pc.cycles()) / ev);
    state.counters["instructions_per_event"] =
        benchmark::Counter(static_cast<double>(pc.instructions()) / ev);
    if (pc.branches() > 0) {
      state.counters["branch_miss_rate"] = benchmark::Counter(
          static_cast<double>(pc.branch_misses()) /
          static_cast<double>(pc.branches()));
    }
  }
  if (pc.task_clock_available()) {
    state.counters["task_clock_ns_per_event"] =
        benchmark::Counter(static_cast<double>(pc.task_clock_ns()) / ev);
  }
}

void BM_SaturatedUdpPairs(benchmark::State& state) {
  const int n_pairs = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const PairLayout l = pairs_in_range(n_pairs);
    std::vector<Node*> senders, receivers;
    for (int i = 0; i < n_pairs; ++i) senders.push_back(&sim.add_node(l.senders[i]));
    for (int i = 0; i < n_pairs; ++i) receivers.push_back(&sim.add_node(l.receivers[i]));
    std::vector<Sim::UdpFlow> flows;
    for (int i = 0; i < n_pairs; ++i) {
      flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i]));
    }
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    for (const auto& f : flows) total += f.goodput_mbps();
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

void BM_TcpPair(benchmark::State& state) {
  std::uint64_t seed = 1;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const PairLayout l = pairs_in_range(1);
    Node& s = sim.add_node(l.senders[0]);
    Node& r = sim.add_node(l.receivers[0]);
    auto f = sim.add_tcp_flow(s, r);
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    benchmark::DoNotOptimize(f.goodput_mbps());
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

// Hotspot scale: one saturated AP pushing UDP downlink to N stations, all
// mutually in range — the paper's deployment shape. Every DATA/ACK/RTS/CTS
// fans out to every station, so this is the benchmark where per-frame
// radio math (distance/rx-power per attached PHY) dominates; the link-state
// cache turns that into a flat table walk. Offered load is fixed at
// 24 Mbps total (shared across stations) so packet-generation event cost
// stays constant across N and the sweep isolates the PHY fan-out.
void BM_Hotspot(benchmark::State& state) {
  const int n_stations = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  PerfCounters pc;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.measure = seconds(1);
    cfg.warmup = milliseconds(100);
    cfg.seed = seed++;
    Sim sim(cfg);
    const SharedApLayout l = shared_ap(n_stations);
    Node& ap = sim.add_node(l.ap);
    std::vector<Sim::UdpFlow> flows;
    flows.reserve(static_cast<std::size_t>(n_stations));
    for (int i = 0; i < n_stations; ++i) {
      Node& sta = sim.add_node(l.clients[static_cast<std::size_t>(i)]);
      flows.push_back(sim.add_udp_flow(ap, sta, 24.0 / n_stations));
    }
    pc.start();
    sim.run();
    pc.stop();
    sim_seconds += sim_span_seconds(cfg);
    events += sim.scheduler().executed();
    for (const auto& f : flows) total += f.goodput_mbps();
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  report_perf(state, pc, events);
}

// Pure scheduler microbench, no PHY/MAC: the dominant MAC pattern of
// schedule / cancel / reschedule plus a fired ladder. Measures raw
// events/sec through the slab + wheel with zero steady-state allocation.
void BM_SchedulerChurn(benchmark::State& state) {
  Scheduler s;
  std::uint64_t sink = 0;
  constexpr int kBatch = 64;
  // Counters bracket the whole loop: iterations here are µs-scale, so
  // per-iteration ioctl start/stop would dominate the timing.
  PerfCounters pc;
  pc.start();
  for (auto _ : state) {
    EventId cancelled[kBatch / 4];
    int nc = 0;
    for (int i = 0; i < kBatch; ++i) {
      EventId id = s.after(microseconds(1 + (i * 7) % 50), [&sink] { ++sink; });
      if (i % 4 == 0) cancelled[nc++] = id;
    }
    for (int i = 0; i < nc; ++i) cancelled[i].cancel();
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  pc.stop();
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(s.executed()), benchmark::Counter::kIsRate);
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(s.pool_slots()));
  report_perf(state, pc, s.executed());
}

// Timer restart churn: the defer/backoff/NAV pattern — start, supersede,
// fire — exercising the cancel-tombstone path and slot reuse.
void BM_TimerRestart(benchmark::State& state) {
  Scheduler s;
  std::uint64_t fired = 0;
  Timer t(s, [&fired] { ++fired; });
  // Whole-loop counter bracket, as in BM_SchedulerChurn: per-iteration
  // ioctls would dominate these µs-scale iterations.
  PerfCounters pc;
  pc.start();
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) t.start(microseconds(10 + i));
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  pc.stop();
  state.counters["restarts_per_second"] = benchmark::Counter(
      32.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(s.pool_slots()));
  report_perf(state, pc, s.executed());
}

// The conservative parallel engine at hotspot scale: four isolated cells
// of 8 stations each plus a ring of cross-cell backhaul flows (2 ms wire
// => 2 ms lookahead epochs), run on 1, 2 and 4 shards. The 1-shard row is
// the sequential reference (identical epoch structure, no worker
// threads); speedup at N shards is the row ratio. No perf-counter
// attribution here: the work runs on pool workers, which the calling
// thread's perf_event fds do not observe — cycle attribution for the
// engine's event path comes from the single-threaded benches above.
void BM_ShardedHotspot(benchmark::State& state) {
  const int n_shards = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double total = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t routed = 0;
  for (auto _ : state) {
    ShardedWorldSpec spec;
    spec.base.comm_range_m = 30.0;
    spec.base.cs_range_m = 60.0;
    spec.base.measure = seconds(1);
    spec.base.warmup = milliseconds(100);
    spec.base.seed = seed++;
    for (int b = 0; b < 4; ++b) {
      HotspotBssSpec cell;
      cell.ap = Position{600.0 * b, 0.0};
      cell.n_stations = 8;
      cell.rate_mbps = 24.0 / 8;
      spec.bsss.push_back(cell);
    }
    for (int b = 0; b < 4; ++b) {
      CrossFlowSpec cf;
      cf.src_bss = b;
      cf.dst_bss = (b + 1) % 4;
      cf.dst_station = b;
      cf.latency = milliseconds(2);
      cf.rate_mbps = 0.5;
      spec.cross_flows.push_back(cf);
    }
    ShardedSim sim(spec, n_shards, /*threaded=*/n_shards > 1);
    sim.run();
    sim_seconds += sim_span_seconds(spec.base);
    events += sim.events_executed();
    routed += sim.cross_packets_routed();
    for (const auto& m : sim.metrics()) total += m.goodput_mbps;
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_seconds_per_wall_second"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_executed"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  state.counters["cross_packets_routed"] = benchmark::Counter(
      static_cast<double>(routed), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_SaturatedUdpPairs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcpPair)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hotspot)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SchedulerChurn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TimerRestart)->Unit(benchmark::kMicrosecond);
// UseRealTime: worker shards run the simulation while the calling thread
// waits at the epoch barrier, so rates must be against wall clock, not the
// calling thread's CPU time.
BENCHMARK(BM_ShardedHotspot)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) to stamp the run's context with
// what actually matters for comparability: the *project* build type
// (library_build_type only describes the system libbenchmark) and which
// scheduler backend the binary defaults to.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("g80211_build_type", G80211_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
