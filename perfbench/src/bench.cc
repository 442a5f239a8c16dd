#include "perfbench/src/bench.h"

#include <algorithm>
#include <utility>

namespace perfbench {

std::vector<double> Tracer::self_ms() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) * 1e-6);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

int tail_percentile(std::size_t n) {
  // Largest p with n * (1 - p/100) >= 10.
  for (int p = 99; p >= 1; --p) {
    if (static_cast<double>(n) * (100 - p) >= 1000.0) return p;
  }
  return 0;
}

}  // namespace perfbench
