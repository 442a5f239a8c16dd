// Shared pieces of the benchmark program: wall clock, the span tracer, the
// step digest, and order statistics.
//
// Everything here lives in the benchmark, outside the simulator: spans are
// recorded around calls into the library's public API, never inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One traced interval. `parent` indexes Tracer::spans (-1 = root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

// In-memory span store for the calling thread. Disabled, it records
// nothing and a Scope costs one branch. Spans measured on other threads
// (campaign job bodies) are timed there and added afterwards with add().
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.enabled) return;
      index_ = static_cast<int>(t_.spans.size());
      t_.spans.push_back({name, now_ns(), 0, t_.open_});
      t_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      t_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
      t_.open_ = t_.spans[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  // A span timed elsewhere, parented to the innermost open span.
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled) spans.push_back({name, start_ns, end_ns, open_});
  }

  // Durations (ms) of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (s.name == name) out.push_back(s.ms());
    }
    return out;
  }

  // Self time per span: its duration minus the union its children cover.
  // Children of one parent may overlap (concurrent campaign jobs), so the
  // covered part is the union of their intervals, not the sum.
  std::vector<double> self_ms() const;

 private:
  int open_ = -1;
};

// FNV-1a over the exact bytes of simulated statistics: equal digests mean
// bit-identical results.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest whole percentile that leaves at least 10 samples above it,
// so the reported tail always rests on ten or more observations. Returns
// 0 when the sample is too small (fewer than 11 values).
int tail_percentile(std::size_t n);

}  // namespace perfbench
