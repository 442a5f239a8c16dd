#include "perfbench/src/workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "perfbench/src/paper.h"
#include "src/capture/capture_reader.h"
#include "src/capture/capture_writer.h"
#include "src/capture/replay.h"
#include "src/monitor/driver.h"
#include "src/net/packet.h"
#include "src/phy/error_model.h"
#include "src/runner/campaign.h"
#include "src/scenario/sharded.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"

namespace perfbench {

using namespace g80211;

const char* const kWorkloads[4] = {"city_roaming", "sharded_backhaul",
                                   "paper_campaign", "monitor_replay"};

namespace {

constexpr int kRunsPerPoint = 5;  // the paper's median-of-5
constexpr unsigned kJobs = 2;     // worker threads of the campaign
constexpr int kShards = 2;       // shards of the sharded world and the monitor

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void add_mac(Digest& d, const MacStats& m) {
  for (std::int64_t v :
       {m.rts_sent, m.data_sent, m.data_retries, m.data_success, m.data_dropped,
        m.cts_sent, m.acks_sent, m.spoofed_acks_sent, m.fake_acks_sent,
        m.rx_data_ok, m.rx_corrupted}) {
    d.add_i64(v);
  }
}

void sim_layers(const SimCounters& c, LayerMetrics& out) {
  out["sim.events"] = static_cast<double>(c.events);
  out["sim.pool_slots"] = static_cast<double>(c.pool_slots);
  out["sim.tombstones"] = static_cast<double>(c.tombstones);
  out["phy.link_table_rebuilds"] = static_cast<double>(c.link_rebuilds);
  out["phy.receivers_per_tx"] = ratio(c.receivers_x_frames, c.frames_sent);
  out["mac.frames_tx"] = c.frames_sent;
  const double sent = static_cast<double>(c.mac.data_sent);
  out["mac.retry_ratio"] = ratio(static_cast<double>(c.mac.data_retries), sent);
  out["mac.drop_ratio"] = ratio(static_cast<double>(c.mac.data_dropped), sent);
}

// JsonlWriter's serialisation of a parsed capture, timed as MB/s.
double rewrite_mb_per_s(Tracer& t, const Capture& cap) {
  Tracer::Scope s(t, "capture.write");
  const std::int64_t a = now_ns();
  std::size_t bytes = JsonlWriter::header_line(cap.owner, cap.params).size();
  for (const CapturedFrame& f : cap.frames) bytes += JsonlWriter::frame_line(f).size();
  bytes += JsonlWriter::footer_line(cap.end_time).size();
  return static_cast<double>(bytes) * 1e-6 / seconds_between(a, now_ns());
}

// ---------------------------------------------------------------- city --

std::string city_spec_text(std::uint64_t seed, bool probe) {
  const int side = probe ? 4 : 12;
  char buf[1536];
  std::snprintf(buf, sizeof(buf), R"([world]
name = "perfbench_city"
standard = "b"
seed = %llu
warmup_s = 0.5
measure_s = %g

[aps]
cols = %d
rows = %d
pitch_m = 60.0
grc_coverage = 0.5

[stations]
per_ap = 8
radius_m = 20.0

[churn]
fraction = 0.2
mean_on_s = 2.0
mean_off_s = 1.0

[roaming]
fraction = 0.1
speed_mps = 10.0
hysteresis_m = 5.0

[[traffic]]
class = "cbr"
weight = 1.0
rate_mbps = 1.0

[[traffic]]
class = "web"
weight = 2.0
rate_mbps = 2.0
burst_s = 1.0
idle_s = 2.0

[[traffic]]
class = "tcp"
weight = 1.0

[greedy]
fraction = 0.05
nav_inflation = 1.0
ack_spoofing = 1.0
fake_ack = 1.0

[metrics]
window_s = %g
ring_m = 25.0
)",
                static_cast<unsigned long long>(seed), probe ? 1.0 : 5.0, side,
                side, probe ? 0.25 : 0.05);
  return buf;
}

// A BuiltWorld city: spec build, link-table rebuilds under roaming and
// wide reception fan-out. A step is one metric window.
class City : public Workload {
 public:
  City(std::uint64_t seed, bool probe) : text_(city_spec_text(seed, probe)) {}

  Episode episode(Tracer& t) override {
    Episode ep;
    const std::int64_t t0 = now_ns();
    spec::WorldSpec spec;
    {
      Tracer::Scope s(t, "spec.parse");
      spec = spec::parse_world_spec_text(text_, "perfbench_city.toml");
    }
    if (t.enabled) {
      // BuiltWorld plans internally; the traced run times the plan alone
      // (its size is kept so the call cannot be optimised away).
      Tracer::Scope s(t, "spec.plan");
      planned_stations_ = spec::plan_world(spec).stations.size();
    }
    std::unique_ptr<spec::BuiltWorld> world;
    {
      Tracer::Scope s(t, "spec.build");
      world = std::make_unique<spec::BuiltWorld>(spec);
    }
    ep.setup_s = seconds_between(t0, now_ns());

    std::int64_t run_ns = 0;
    {
      Tracer::Scope s(t, "city.run");
      const std::int64_t r0 = now_ns();
      std::int64_t last = r0;
      // Window 0 also holds the warmup: it is no step of its own, and its
      // digest is folded into step 1.
      Digest d;
      world->run([&](const spec::BuiltWorld::WindowReport& w) {
        const std::int64_t now = now_ns();
        d.add_f64(w.honest_mbps);
        d.add_f64(w.greedy_mbps);
        for (const auto& r : w.rings) {
          d.add_i64(r.stations);
          for (double v : {r.total_mbps, r.mean_mbps, r.p25, r.p50, r.p75}) d.add_f64(v);
        }
        if (w.index > 0) {
          t.add("city.window", last, now);
          ep.steps.push_back({static_cast<double>(now - last) * 1e-6, d.value()});
          ep.units.push_back({w.t_end_s - w.t_start_s, seconds_between(last, now)});
          d = Digest{};
        }
        last = now;
      });
      run_ns = now_ns() - r0;
    }

    std::vector<Node*> nodes;
    const int aps = spec.num_aps();
    for (int a = 0; a < aps; ++a) nodes.push_back(&world->ap_node(a));
    for (int s = 0; s < spec.num_stations(); ++s) nodes.push_back(&world->station_node(s));
    counters_ = read_counters(world->sim(), nodes);
    const auto& sum = world->summary();
    if (!ep.steps.empty()) {
      Digest d;
      d.add_u64(ep.steps.back().digest);
      d.add_u64(counters_.events);
      add_mac(d, counters_.mac);
      for (std::int64_t v : {sum.handoffs, sum.nav_detections, sum.spoof_detections}) {
        d.add_i64(v);
      }
      ep.steps.back().digest = d.value();
    }
    const std::size_t phys = world->sim().channel().phys().size();
    if (sum.handoffs <= 0) {
      ep.guard_failure = "city_roaming: no handoffs, so roaming never moved a station";
    } else if (counters_.link_rebuilds < 4 * phys) {
      ep.guard_failure = "city_roaming: link-table rebuilds (" +
                         std::to_string(counters_.link_rebuilds) +
                         ") not well above the " + std::to_string(phys) + " senders";
    }

    if (t.enabled) {
      run_ns_.push_back(static_cast<double>(run_ns));
      events_.push_back(static_cast<double>(counters_.events));
      Channel& ch = world->sim().channel();
      Tracer::Scope s(t, "phy.rebuild_probe");
      const std::int64_t a = now_ns();
      ch.invalidate_topology();
      for (Phy* p : ch.phys()) ch.neighbors_of(p);
      rebuild_us_.push_back(static_cast<double>(now_ns() - a) * 1e-3 /
                            static_cast<double>(ch.phys().size()));
    }
    return ep;
  }

  void layers(const Tracer& t, LayerMetrics& out) override {
    out["spec.parse_ms"] = median(t.durations("spec.parse"));
    out["spec.plan_ms"] = median(t.durations("spec.plan"));
    out["spec.build_ms"] = median(t.durations("spec.build"));
    sim_layers(counters_, out);
    std::vector<double> per_event;
    for (std::size_t i = 0; i < run_ns_.size(); ++i) {
      per_event.push_back(ratio(run_ns_[i], events_[i]));
    }
    out["sim.ns_per_event"] = median(per_event);
    out["sim.packet_arena_slots"] = static_cast<double>(packet_arena().slots());
    out["phy.rebuild_us"] = median(rebuild_us_);
  }

 private:
  std::string text_;
  SimCounters counters_;
  std::size_t planned_stations_ = 0;
  std::vector<double> run_ns_, events_, rebuild_us_;
};

// ------------------------------------------------------------- sharded --

ShardedWorldSpec backhaul_spec(std::uint64_t seed, bool probe) {
  ShardedWorldSpec spec;
  spec.base.standard = Standard::B80211;
  spec.base.comm_range_m = 55.0;
  spec.base.cs_range_m = 99.0;
  spec.base.warmup = milliseconds(200);
  spec.base.measure = milliseconds(probe ? 300 : 1000);
  spec.base.seed = seed;
  const int cells = probe ? 4 : 32;
  // Cells 300 m apart: far outside carrier-sense range, so the partition
  // validator accepts any split.
  for (int i = 0; i < cells; ++i) {
    HotspotBssSpec bss;
    bss.ap = {300.0 * (i % 8), 300.0 * (i / 8)};
    bss.n_stations = 4;
    bss.rate_mbps = 3.0;  // 12 Mb/s offered per cell: saturated on 11b
    spec.bsss.push_back(bss);
  }
  // Wired backhaul ring between the cells.
  for (int i = 0; i < cells; ++i) {
    CrossFlowSpec f;
    f.src_bss = i;
    f.dst_bss = (i + 1) % cells;
    f.dst_station = i % 4;
    f.latency = milliseconds(2);
    f.rate_mbps = 1.0;
    spec.cross_flows.push_back(f);
  }
  return spec;
}

std::uint64_t sharded_digest(const ShardedSim& sim) {
  Digest d;
  for (const auto& m : sim.metrics()) {
    d.add_i64(m.flow_id);
    d.add_f64(m.goodput_mbps);
    d.add_i64(m.packets);
    d.add_i64(m.highest_seq);
  }
  d.add_u64(sim.cross_packets_routed());
  return d.value();
}

// ShardedSim at 2 shards: lockstep epochs and mailbox crossings. A step is
// one seeded world run. The timed runs execute the shards inline on one
// thread: on a shared host whose vCPUs are stolen as soon as two of them
// are busy, lockstep worker threads wait on each other at every epoch
// barrier and their wall time swings by 2x between identical runs. The
// traced run times the same world on the ThreadPool workers
// (sharded.threaded_over_inline) and checks its digest too.
class Sharded : public Workload {
 public:
  Sharded(std::uint64_t seed, bool probe)
      : spec_(backhaul_spec(seed, probe)),
        sim_s_(to_seconds(spec_.base.warmup + spec_.base.measure)) {}

  void prepare() override {
    // The sequential reference: one shard, no worker threads.
    ShardedSim ref(spec_, 1, false);
    ref.run();
    reference_ = sharded_digest(ref);
  }

  Episode episode(Tracer& t) override {
    Episode ep;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<ShardedSim> sim;
    {
      Tracer::Scope s(t, "sharded.build");
      sim = std::make_unique<ShardedSim>(spec_, kShards, false);
    }
    const std::int64_t t1 = now_ns();
    ep.setup_s = seconds_between(t0, t1);
    {
      Tracer::Scope s(t, "sharded.run");
      sim->run();
    }
    const std::int64_t t2 = now_ns();
    const std::uint64_t dg = sharded_digest(*sim);
    ep.steps.push_back({static_cast<double>(t2 - t1) * 1e-6, dg, dg == reference_});
    ep.units.push_back({sim_s_, seconds_between(t1, t2)});
    epochs_ = sim->epochs_run();
    cross_ = sim->cross_packets_routed();
    events_ = sim->events_executed();
    if (epochs_ <= 1) {
      ep.guard_failure = "sharded_backhaul: the world ran in one epoch";
    } else if (cross_ == 0) {
      ep.guard_failure = "sharded_backhaul: no packet crossed a shard boundary";
    }
    if (t.enabled) {
      us_per_epoch_.push_back(static_cast<double>(t2 - t1) * 1e-3 /
                              static_cast<double>(epochs_));
      // The same shards pinned to kJobs ThreadPool workers.
      std::unique_ptr<ShardedSim> threaded;
      {
        Tracer::Scope s(t, "sharded.threaded_build");
        threaded = std::make_unique<ShardedSim>(spec_, kShards, true);
      }
      {
        Tracer::Scope s(t, "sharded.threaded_run");
        threaded->run();
      }
      if (sharded_digest(*threaded) != reference_) ep.steps.back().ok = false;
    }
    return ep;
  }

  void layers(const Tracer& t, LayerMetrics& out) override {
    out["sharded.build_ms"] = median(t.durations("sharded.build"));
    out["sharded.epochs"] = static_cast<double>(epochs_);
    out["sharded.cross_deliveries"] = static_cast<double>(cross_);
    out["sharded.us_per_epoch"] = median(us_per_epoch_);
    out["sharded.threaded_over_inline"] =
        ratio(median(t.durations("sharded.threaded_run")), median(t.durations("sharded.run")));
    out["sim.events"] = static_cast<double>(events_);
  }

 private:
  ShardedWorldSpec spec_;
  double sim_s_;
  std::uint64_t reference_ = 0;
  std::uint64_t epochs_ = 0, cross_ = 0, events_ = 0;
  std::vector<double> us_per_epoch_;
};

// ------------------------------------------------------------ campaign --

std::uint64_t point_seed(std::uint64_t seed, std::size_t point) {
  return seed * 1000 + 10 * point;
}

struct RunSlot {
  PaperRun run;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Runs `points` as one Campaign at kJobs workers, kRunsPerPoint seeds per
// point; `first_index` is the points' position in campaign_points(), which
// fixes their seeds. Fills one slot per seeded run, in job order.
std::vector<CampaignPoint> run_campaign(const std::vector<PaperPoint>& points,
                                        std::size_t first_index,
                                        std::uint64_t seed,
                                        std::vector<RunSlot>& slots,
                                        std::int64_t* setup_end_ns = nullptr) {
  slots.assign(points.size() * kRunsPerPoint, RunSlot{});
  Campaign campaign("", {});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PaperPoint& p = points[i];
    const std::uint64_t base = point_seed(seed, first_index + i);
    RunSlot* slot = &slots[i * kRunsPerPoint];
    const std::string stem =
        p.captures ? run_capture_stem("perfbench_" + p.figure, p.label) : "";
    campaign.add(p.label, p.x, base, kRunsPerPoint,
                 [run = p.run, slot, base, stem](std::uint64_t s) {
                   RunSlot& out = slot[s - base];
                   out.start_ns = now_ns();
                   out.run = run(s, stem.empty() ? stem : stem + "_seed" + std::to_string(s));
                   out.end_ns = now_ns();
                   return out.run.goodput_mbps;
                 });
  }
  if (setup_end_ns != nullptr) *setup_end_ns = now_ns();
  return campaign.run(kJobs);
}

// The reproduction users run: a Campaign over the paper's hotspots. A
// step is one seeded run; a round is the whole grid.
class PaperCampaign : public Workload {
 public:
  PaperCampaign(std::uint64_t seed, const std::string& work_dir, bool probe)
      : seed_(seed), points_(campaign_points()) {
    if (probe) points_.resize(points_.size() - testbed_points().size());
    // The G80211_CAPTURE flow: the Fig 12 points record a capture at the
    // first sender, next to the exported metrics.
    capture_dir_ = work_dir + "/captures";
    std::filesystem::create_directories(capture_dir_);
    setenv("G80211_CAPTURE", "1", 1);
    setenv("G80211_METRICS_DIR", capture_dir_.c_str(), 1);
  }

  Episode episode(Tracer& t) override {
    Episode ep;
    std::vector<RunSlot> slots;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = 0, t2 = 0;
    {
      Tracer::Scope s(t, "runner.campaign");
      run_campaign(points_, 0, seed_, slots, &t1);
      t2 = now_ns();
      for (const RunSlot& r : slots) t.add("runner.job", r.start_ns, r.end_ns);
    }
    ep.setup_s = seconds_between(t0, t1);

    counters_ = SimCounters{};
    double sim_s = 0.0, busy_s = 0.0;
    std::int64_t captured = 0;
    for (const RunSlot& r : slots) {
      Digest d;
      for (double g : r.run.goodput_mbps) d.add_f64(g);
      d.add_u64(r.run.counters.events);
      add_mac(d, r.run.counters.mac);
      ep.steps.push_back({static_cast<double>(r.end_ns - r.start_ns) * 1e-6, d.value()});
      counters_.merge(r.run.counters);
      sim_s += r.run.sim_s;
      busy_s += seconds_between(r.start_ns, r.end_ns);
      captured += r.run.capture_frames;
    }
    ep.units.push_back({sim_s, seconds_between(t1, t2)});
    if (captured <= 0) {
      ep.guard_failure = "paper_campaign: the Fig 12 points wrote no capture frames";
    }
    if (t.enabled) {
      busy_.push_back(busy_s / (kJobs * seconds_between(t1, t2)));
      job_ns_ = busy_s * 1e9;
    }
    return ep;
  }

  void layers(const Tracer&, LayerMetrics& out) override {
    out["runner.busy_ratio"] = median(busy_);
    sim_layers(counters_, out);
    out["sim.ns_per_event"] = ratio(job_ns_, static_cast<double>(counters_.events));
    // ErrorModel::frame_error_prob on a lossy 4-node channel (the Fig 12
    // regime), across frame types and sizes.
    ErrorModel em;
    em.set_default_ber(2e-4);
    double sink = 0.0;
    constexpr int kCalls = 400000;
    const std::int64_t a = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      sink += em.frame_error_prob(i & 3, (i >> 2) & 3,
                                  (i & 16) ? FrameType::kData : FrameType::kAck,
                                  64 + (i & 7) * 180);
    }
    out["phy.fer_ns"] = static_cast<double>(now_ns() - a) / kCalls;
    fer_sink_ = sink;
    // Re-serialise one capture this campaign wrote.
    for (const auto& e : std::filesystem::directory_iterator(capture_dir_)) {
      if (e.path().extension() != ".jsonl") continue;
      Tracer probe;
      probe.enabled = true;
      out["capture.write_mb_per_s"] = rewrite_mb_per_s(probe, read_jsonl(e.path().string()));
      break;
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<PaperPoint> points_;
  std::string capture_dir_;
  SimCounters counters_;
  std::vector<double> busy_;
  double job_ns_ = 0.0;
  volatile double fer_sink_ = 0.0;  // keeps the probe's results observable
};

// ------------------------------------------------------------- monitor --

// MonitorDriver following live JSONL journals, in its follow mode. The
// journals are recorded before timing; each episode replays them as live
// captures: it truncates a live copy of each, opens the driver on the
// copies, then for every chunk appends the next 1/kChunks of each journal
// (untimed) and times one pass() over what arrived. A step is one pass; no
// simulator runs while it is timed. The timed passes run on one shard:
// with two, every pass waits for the slower worker, and in a spell of
// steal on a shared host even a run's fastest pass was 45% slower. The
// traced run replays the same journals at kShards shards
// (monitor.threaded_over_inline) and checks their verdicts too.
class MonitorReplay : public Workload {
 public:
  MonitorReplay(std::uint64_t seed, const std::string& work_dir, bool probe)
      : seed_(seed), dir_(work_dir + (probe ? "/journals_probe" : "/journals")),
        probe_(probe), chunks_(probe ? 20 : 100) {}

  void prepare() override {
    std::filesystem::create_directories(dir_ + "/live");
    // Journals from the attack scenarios of the campaign grid, recorded at
    // the first sender: NAV inflation on CTS and on ACK, and ACK spoofing.
    const std::vector<std::pair<std::string, std::string>> wanted =
        probe_ ? std::vector<std::pair<std::string, std::string>>{{"fig1", "2"},
                                                                  {"fig12", "100"}}
               : std::vector<std::pair<std::string, std::string>>{
                     {"fig1", "2"},      {"fig12", "100"}, {"fig12", "60"},
                     {"table7", "ack"},  {"fig1", "0.6"},  {"fig12", "20"}};
    const std::vector<PaperPoint> points = campaign_points();
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].figure != wanted[k].first || points[i].label != wanted[k].second) {
          continue;
        }
        const std::string name = "stream" + std::to_string(k);
        points[i].run(point_seed(seed_, i), dir_ + "/" + name);
        std::filesystem::remove(dir_ + "/" + name + ".pcap");
        paths_.push_back(dir_ + "/" + name + ".jsonl");
        live_paths_.push_back(dir_ + "/live/" + name + ".jsonl");
      }
    }
    for (const std::string& p : paths_) {
      const Capture cap = read_jsonl(p);
      reference_.push_back(replay_capture(cap, MonitorConfig{}.replay));
      horizon_s_ += to_seconds(cap.end_time);
      // The journal's text and the ends of its chunks, on line boundaries.
      std::ifstream in(p, std::ios::binary);
      text_.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      std::vector<std::size_t> line_ends;
      for (std::size_t at = text_.back().find('\n'); at != std::string::npos;
           at = text_.back().find('\n', at + 1)) {
        line_ends.push_back(at + 1);
      }
      chunk_ends_.emplace_back();
      for (std::size_t c = 1; c <= chunks_; ++c) {
        chunk_ends_.back().push_back(line_ends[line_ends.size() * c / chunks_ - 1]);
      }
    }
  }

  Episode episode(Tracer& t) override {
    Episode ep;
    std::vector<std::ofstream> live = truncate_live();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<MonitorDriver> driver;
    {
      Tracer::Scope s(t, "monitor.open");
      driver = std::make_unique<MonitorDriver>(MonitorOptions{}, live_paths_);
    }
    ep.setup_s = seconds_between(t0, now_ns());
    const double pass_s = follow(*driver, live, t, "monitor.pass", &ep.steps);
    ep.units.push_back({horizon_s_, pass_s});
    if (!driver->finished()) {
      ep.guard_failure = "monitor_replay: the live journals never reached their footers";
      return ep;
    }
    driver->finalize();
    const auto windows = driver->drain_windows();
    const auto alerts = driver->drain_alerts();
    Digest d;
    d.add_u64(ep.steps.back().digest);
    bool ok = true;
    frames_ = 0;
    for (std::size_t i = 0; i < driver->num_streams(); ++i) {
      const ReplayResult v = driver->verdicts(i);
      ok = ok && v == reference_[i];
      frames_ += driver->status(i).frames;
      d.add_i64(v.nav_detections);
      d.add_i64(v.acks_ignored);
      d.add_i64(v.spoof_flagged());
      d.add_u64(v.fake_ack.size() + v.backoff.size() + v.cross_layer.size());
    }
    for (const StreamWindow& w : windows) {
      d.add_i64(w.stream);
      for (std::int64_t v : {w.window.end, w.window.frames, w.window.nav_detections,
                             w.window.spoof_flagged, w.window.acks_ignored}) {
        d.add_i64(v);
      }
    }
    for (const StreamAlert& a : alerts) {
      d.add_i64(a.stream);
      d.add_i64(static_cast<int>(a.alert.kind));
      d.add_i64(a.alert.at);
      d.add_i64(a.alert.subject);
      d.add_i64(a.alert.evidence);
    }
    ep.steps.back().digest = d.value();
    ep.steps.back().ok = ok;
    windows_ = static_cast<std::int64_t>(windows.size());
    alerts_ = static_cast<std::int64_t>(alerts.size());
    if (alerts_ <= 0) ep.guard_failure = "monitor_replay: no alert raised";

    if (t.enabled) {
      driver.reset();
      live = truncate_live();
      MonitorOptions opts;
      opts.shards = kShards;
      MonitorDriver threaded(opts, live_paths_);
      threaded_over_inline_.push_back(
          follow(threaded, live, t, "monitor.threaded_pass", nullptr) / pass_s);
      threaded.finalize();
      for (std::size_t i = 0; i < threaded.num_streams(); ++i) {
        if (!(threaded.verdicts(i) == reference_[i])) ep.steps.back().ok = false;
      }
      double bytes = 0.0, read_s = 0.0;
      for (const std::string& p : paths_) {
        bytes += static_cast<double>(std::filesystem::file_size(p));
        Capture cap;
        const std::int64_t a = now_ns();
        {
          Tracer::Scope s(t, "capture.read_jsonl");
          cap = read_jsonl(p);
        }
        read_s += seconds_between(a, now_ns());
        {
          Tracer::Scope s(t, "detect.replay");
          replay_capture(cap, MonitorConfig{}.replay);
        }
        write_mb_s_.push_back(rewrite_mb_per_s(t, cap));
      }
      read_mb_s_.push_back(bytes * 1e-6 / read_s);
    }
    return ep;
  }

  void layers(const Tracer& t, LayerMetrics& out) override {
    out["capture.read_mb_per_s"] = median(read_mb_s_);
    out["capture.write_mb_per_s"] = median(write_mb_s_);
    // One replay per journal per traced episode: sum over journals.
    const auto replays = t.durations("detect.replay");
    std::vector<double> per_pass;
    for (std::size_t i = 0; i + paths_.size() <= replays.size(); i += paths_.size()) {
      double sum = 0.0;
      for (std::size_t k = 0; k < paths_.size(); ++k) sum += replays[i + k];
      per_pass.push_back(sum);
    }
    out["detect.replay_ms"] = median(per_pass);
    out["monitor.frames"] = static_cast<double>(frames_);
    out["monitor.windows"] = static_cast<double>(windows_);
    out["monitor.alerts"] = static_cast<double>(alerts_);
    out["monitor.threaded_over_inline"] = median(threaded_over_inline_);
  }

 private:
  // Empty live copies of the journals, open for appending.
  std::vector<std::ofstream> truncate_live() const {
    std::vector<std::ofstream> live;
    for (const std::string& p : live_paths_) {
      live.emplace_back(p, std::ios::binary | std::ios::trunc);
    }
    return live;
  }

  // Appends each chunk to the live journals, then times one pass over it.
  // Each step's digest covers the records that pass consumed. Returns the
  // summed pass time in seconds.
  double follow(MonitorDriver& driver, std::vector<std::ofstream>& live, Tracer& t,
                const char* span, std::vector<Step>* steps) const {
    double pass_s = 0.0;
    for (std::size_t c = 0; c < chunks_; ++c) {
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t from = c == 0 ? 0 : chunk_ends_[i][c - 1];
        live[i].write(text_[i].data() + from,
                      static_cast<std::streamsize>(chunk_ends_[i][c] - from));
        live[i].flush();
      }
      const std::int64_t a = now_ns();
      std::size_t n = 0;
      {
        Tracer::Scope s(t, span);
        n = driver.pass();
      }
      const std::int64_t b = now_ns();
      pass_s += seconds_between(a, b);
      if (steps != nullptr) {
        Digest d;
        d.add_u64(n);
        steps->push_back({static_cast<double>(b - a) * 1e-6, d.value()});
      }
    }
    return pass_s;
  }

  std::uint64_t seed_;
  std::string dir_;
  bool probe_;
  std::size_t chunks_;
  std::vector<std::string> paths_, live_paths_, text_;
  std::vector<std::vector<std::size_t>> chunk_ends_;
  std::vector<ReplayResult> reference_;
  double horizon_s_ = 0.0;
  std::int64_t frames_ = 0, windows_ = 0, alerts_ = 0;
  std::vector<double> read_mb_s_, write_mb_s_, threaded_over_inline_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir,
                                        bool probe) {
  if (name == "city_roaming") return std::make_unique<City>(seed, probe);
  if (name == "sharded_backhaul") return std::make_unique<Sharded>(seed, probe);
  if (name == "paper_campaign") {
    return std::make_unique<PaperCampaign>(seed, work_dir, probe);
  }
  if (name == "monitor_replay") {
    return std::make_unique<MonitorReplay>(seed, work_dir, probe);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double paper_error_at_seed(std::uint64_t seed) {
  const std::vector<PaperPoint> points = testbed_points();
  const std::size_t first = campaign_points().size() - points.size();
  std::vector<RunSlot> slots;
  const std::vector<CampaignPoint> result = run_campaign(points, first, seed, slots);
  std::vector<std::vector<double>> medians;
  for (const CampaignPoint& p : result) medians.push_back(p.median);
  return paper_error_mbps(medians);
}

}  // namespace perfbench
