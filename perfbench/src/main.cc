// Benchmark program: runs one workload for a wall-clock budget and prints
// its metrics as JSON.
//
//   g80211_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--record FILE]
//
// Every episode repeats the same steps, and the end-to-end timings use
// each step's fastest repeat in the run (see fastest()).
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced it prints
// the per-layer metrics, alternating traced and untraced episodes so the
// tracing overhead is measured on the same host moments. Layers the
// workload's own steps never call are measured on one small probe episode
// of the workload that calls them. perfbench/run.py is the user-facing
// entry point; it builds this program, adds units and host context.
//
// Output: a context line, then the result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name: value}}
// Every step's digest must equal the first episode's digest for that step
// and, with --record, the digest recorded in FILE by an earlier run of the
// same seed (written when FILE does not exist yet). A mismatch, or a
// failed mechanism guard, counts the step as failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string record;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = v == "1";
    else if (key == "--work-dir") a.work_dir = v;
    else if (key == "--record") a.record = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty() || a.work_dir.empty() || a.seconds <= 0) {
    throw std::invalid_argument("--workload, --work-dir and --seconds > 0 are required");
  }
  return a;
}

// Peak resident memory from here on: resets the kernel's high-water mark
// (clear_refs 5) after returning freed heap, so input generation and
// reference runs do not count toward the workload.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<std::uint64_t> read_record(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::string tok;
  while (in >> tok) out.push_back(std::stoull(tok, nullptr, 16));
  return out;
}

void write_record(const std::string& path, const std::vector<Step>& steps) {
  std::ofstream out(path);
  for (const Step& s : steps) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx\n", static_cast<unsigned long long>(s.digest));
    out << buf;
  }
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void write_spans(std::ostream& out, const Tracer& t) {
  const std::vector<double> self = t.self_ms();
  out << "[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"self_ms\":" << json_num(self[i]) << "}";
  }
  out << "]";
}

// Each step's and each throughput unit's fastest repeat across episodes.
// On a shared host, interference from other tenants only ever adds time,
// and it comes in spells of seconds that can slow a whole episode by
// half: the fastest repeat is the program's own cost, and far steadier
// between runs than any average that the spells move.
struct Fastest {
  std::vector<double> step_ms;  // per step index
  double rate = 0.0;            // Σ unit simulated s / Σ fastest unit wall s
};

Fastest fastest(const std::vector<const Episode*>& episodes) {
  Fastest f;
  std::vector<Unit> units;
  for (const Episode* ep : episodes) {
    for (std::size_t i = 0; i < ep->steps.size(); ++i) {
      if (i == f.step_ms.size()) f.step_ms.push_back(ep->steps[i].ms);
      f.step_ms[i] = std::min(f.step_ms[i], ep->steps[i].ms);
    }
    for (std::size_t i = 0; i < ep->units.size(); ++i) {
      if (i == units.size()) units.push_back(ep->units[i]);
      units[i].wall_s = std::min(units[i].wall_s, ep->units[i].wall_s);
    }
  }
  double sim_s = 0.0, wall_s = 0.0;
  for (const Unit& u : units) {
    sim_s += u.sim_s;
    wall_s += u.wall_s;
  }
  f.rate = wall_s > 0 ? sim_s / wall_s : 0.0;
  return f;
}

int run(const Args& args) {
  const std::int64_t start = now_ns();
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, args.work_dir, false);
  w->prepare();
  const double paper_err = args.trace ? 0.0 : paper_error_at_seed(args.seed);
  const double prepare_s = static_cast<double>(now_ns() - start) * 1e-9;
  reset_peak_rss();

  Tracer tracer;
  std::vector<Episode> episodes;
  std::vector<const Episode*> traced, plain;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // Several episodes so setup is sampled more than once; traced runs
  // alternate traced and untraced episodes.
  const std::size_t min_episodes = 3;
  auto is_traced = [&](std::size_t episode) { return args.trace && episode % 2 == 0; };
  while (episodes.size() < min_episodes || now_ns() < deadline) {
    tracer.enabled = is_traced(episodes.size());
    episodes.push_back(w->episode(tracer));
  }
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    (is_traced(i) ? traced : plain).push_back(&episodes[i]);
  }
  const double rss_mb = peak_rss_mb();

  // Correctness: every step against the first episode and the record.
  std::vector<std::uint64_t> record;
  const bool have_record = !args.record.empty() && std::ifstream(args.record).good();
  if (have_record) record = read_record(args.record);
  std::int64_t attempted = 0, failed = 0;
  std::string first_failure;
  const std::vector<Step>& ref = episodes.front().steps;
  for (const Episode& ep : episodes) {
    for (std::size_t i = 0; i < ep.steps.size(); ++i) {
      const Step& s = ep.steps[i];
      std::string why;
      if (!ep.guard_failure.empty()) why = ep.guard_failure;
      else if (!s.ok) why = "step disagrees with its reference result";
      else if (i >= ref.size() || s.digest != ref[i].digest) why = "digest differs between episodes";
      else if (have_record && (i >= record.size() || s.digest != record[i]))
        why = "digest differs from the one recorded for this seed";
      ++attempted;
      if (!why.empty()) {
        ++failed;
        if (first_failure.empty()) first_failure = why;
      }
    }
  }
  if (!args.record.empty() && !have_record && failed == 0) write_record(args.record, ref);

  // Timings are each step's and each unit's fastest repeat in the run;
  // the tail is over those when an episode has enough steps for one (a
  // city run, a campaign round, a monitor replay), otherwise over every
  // step of the run.
  const Fastest best = fastest(plain);
  std::vector<double> setup_s, step_ms;
  for (const Episode* ep : plain) {
    setup_s.push_back(ep->setup_s);
    for (const Step& s : ep->steps) step_ms.push_back(s.ms);
  }
  const bool tail_of_fastest = tail_percentile(best.step_ms.size()) > 0;
  const std::vector<double>& tail_sample = tail_of_fastest ? best.step_ms : step_ms;
  const std::size_t tail_n = tail_sample.size();
  const int tail_p = tail_percentile(tail_n);
  const double tail_ms = quantile(tail_sample, tail_p / 100.0);

  std::ostringstream metrics;
  if (!args.trace) {
    metrics << "\"setup_s\":" << json_num(median(setup_s))
            << ",\"sim_s_per_wall_s\":" << json_num(best.rate)
            << ",\"step_ms.p50\":" << json_num(median(best.step_ms))
            << ",\"step_ms.tail\":" << json_num(tail_ms)
            << ",\"peak_rss_mb\":" << json_num(rss_mb)
            << ",\"paper_err_mbps\":" << json_num(paper_err);
  } else {
    LayerMetrics layers;
    w->layers(tracer, layers);
    std::ofstream spans(args.work_dir + "/trace.json");
    spans << "{\"workload\":\"" << args.workload << "\",\"spans\":";
    write_spans(spans, tracer);
    spans << ",\"probes\":{";
    bool first = true;
    for (const char* other : kWorkloads) {
      if (args.workload == other) continue;
      std::unique_ptr<Workload> p = make_workload(other, args.seed, args.work_dir, true);
      p->prepare();
      Tracer pt;
      pt.enabled = true;
      p->episode(pt);
      LayerMetrics extra;
      p->layers(pt, extra);
      for (const auto& [k, v] : extra) layers.emplace(k, v);
      spans << (first ? "" : ",") << "\"" << other << "\":";
      write_spans(spans, pt);
      first = false;
    }
    spans << "}}\n";
    layers["trace.overhead"] = best.rate / fastest(traced).rate;
    first = true;
    for (const auto& [k, v] : layers) {
      metrics << (first ? "" : ",") << "\"" << k << "\":" << json_num(v);
      first = false;
    }
  }

  std::cout << "{\"context\":{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
            << ",\"episodes\":" << episodes.size() << ",\"steps\":" << step_ms.size()
            << ",\"tail_percentile\":" << tail_p << ",\"tail_of_steps\":" << tail_n
            << ",\"tail_over\":\"" << (tail_of_fastest ? "fastest repeats" : "all steps")
            << "\",\"prepare_s\":" << json_num(prepare_s)
            << ",\"digest_record\":\"" << (have_record ? "checked" : "written") << "\""
            << ",\"first_failure\":\"" << first_failure << "\"}}\n";
  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"metrics\":{"
            << metrics.str() << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "g80211_perfbench: %s\n", e.what());
    return 2;
  }
}
