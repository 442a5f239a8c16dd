// Streaming-metrics memory contract: peak heap usage of a city campaign is
// a function of the world size, never of the simulated duration. The
// acceptance check runs the same world for T and 10T simulated seconds and
// requires the 10T run's peak live allocation to stay within a few percent
// of the T run's — any per-window or per-sample accumulation would grow
// the long run by ~10x instead.
//
// The same allocator pins the error model's memory bound: per-link loss
// overrides cost memory per overridden link, never per node id.
//
// This file is its own test binary (every tests/*.cc is), so it can
// replace the global allocator: operator new prepends a small header
// recording the block size and maintains live/peak counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/phy/error_model.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(std::int64_t bytes) {
  const std::int64_t live = g_live.fetch_add(bytes) + bytes;
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
}

// Header keeps the block size; sized to max_align_t so the returned
// pointer stays suitably aligned for every ordinary (non-overaligned)
// type. Overaligned allocations take the align_val_t overloads, which we
// do not replace — they use the default allocator and are not tracked,
// which is fine: the contract under test is about bulk simulation state.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* tracked_alloc(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  note_alloc(static_cast<std::int64_t>(size));
  return static_cast<char*>(raw) + kHeader;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }

namespace {

using namespace g80211;
using namespace g80211::spec;

// Every feature on (churn, roaming, web bursts, a greedy receiver, GRC) so
// the guard covers each subsystem's steady-state allocation behaviour.
std::string world_toml(double measure_s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "[world]\n"
                "name = \"memcheck\"\n"
                "seed = 4\n"
                "warmup_s = 0.5\n"
                "measure_s = %.1f\n"
                "[aps]\n"
                "cols = 2\nrows = 1\npitch_m = 60.0\ngrc_coverage = 1.0\n"
                "[stations]\n"
                "per_ap = 3\nradius_m = 10.0\n"
                "[churn]\n"
                "fraction = 0.4\nmean_on_s = 0.5\nmean_off_s = 0.5\n"
                "[roaming]\n"
                "fraction = 0.3\nspeed_mps = 10.0\nhysteresis_m = 2.0\n"
                "[[traffic]]\n"
                "class = \"cbr\"\nrate_mbps = 1.0\n"
                "[[traffic]]\n"
                "class = \"web\"\nrate_mbps = 2.0\nburst_s = 0.5\nidle_s = 0.5\n"
                "[greedy]\n"
                "fraction = 0.2\n"
                "[metrics]\n"
                "window_s = 0.25\n",
                measure_s);
  return buf;
}

// Peak live-allocation delta (bytes above the pre-existing baseline) of
// building and running the world for `measure_s` simulated seconds.
std::int64_t campaign_peak_bytes(double measure_s) {
  const WorldSpec spec = parse_world_spec_text(world_toml(measure_s), "mem");
  const std::int64_t base = g_live.load();
  g_peak.store(base);
  std::int64_t windows = 0;
  {
    BuiltWorld world(spec);
    world.run([&](const BuiltWorld::WindowReport&) { ++windows; });
  }
  EXPECT_EQ(windows, static_cast<std::int64_t>(measure_s / 0.25));
  return g_peak.load() - base;
}

TEST(SpecMemory, PeakIsIndependentOfSimulatedDuration) {
  // Warm one throwaway run first so lazily-grown process-wide state
  // (arena chunks, event-pool slabs, stdio buffers) reaches steady state
  // and is not charged to either measured run.
  (void)campaign_peak_bytes(2.0);

  const std::int64_t short_run = campaign_peak_bytes(2.0);
  const std::int64_t long_run = campaign_peak_bytes(20.0);
  ASSERT_GT(short_run, 0);
  // 10x the simulated duration must not move peak memory: allow a small
  // constant-factor slack for allocator noise, nothing near a 10x trend.
  EXPECT_LE(long_run, short_run + short_run / 8 + (64 << 10))
      << "short " << short_run << " B, long " << long_run << " B";
}

TEST(ErrorModelMemory, LinkOverridesAtLargeIdsStaySmall) {
  const std::int64_t base = g_live.load();
  g_peak.store(base);
  double sum = 0.0;
  {
    ErrorModel em;
    em.set_default_ber(1e-5);
    em.set_link_ber(0, 1000, 2e-4);
    em.set_link_rate_limit(100000, 0, 5.5);
    for (FrameType t : {FrameType::kData, FrameType::kAck, FrameType::kRts}) {
      sum += em.frame_error_prob(0, 1000, t, 1064);
      sum += em.frame_error_prob(100000, 0, t, 1064, 11.0);
    }
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_LT(g_peak.load() - base, std::int64_t{64} << 10)
      << "two link overrides must not allocate per node id";
}

}  // namespace
