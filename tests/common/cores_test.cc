#include "common/cores.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <latch>
#include <thread>
#include <vector>

namespace pmkm {
namespace {

cpu_set_t ThreadMask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return mask;
}

void SetThreadMask(const cpu_set_t& mask) {
  ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
}

uint32_t TotalLeases() {
  uint32_t total = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) total += LeasesOn(cpu);
  return total;
}

TEST(CoreLeaseTest, AllowedCpuCountReadsTheMask) {
  const cpu_set_t mask = ThreadMask();
  EXPECT_EQ(AllowedCpuCount(), static_cast<size_t>(CPU_COUNT(&mask)));
}

TEST(CoreLeaseTest, RestoresTheInheritedMask) {
  const cpu_set_t inherited = ThreadMask();
  if (CPU_COUNT(&inherited) < 2) GTEST_SKIP() << "needs 2 allowed CPUs";
  {
    const CoreLease lease;
    const cpu_set_t during = ThreadMask();
    EXPECT_TRUE(CPU_EQUAL(&during, &inherited));
    EXPECT_EQ(TotalLeases(), 1u);
  }
  EXPECT_EQ(TotalLeases(), 0u);
}

TEST(CoreLeaseTest, OneCpuMaskTakesNoLease) {
  const cpu_set_t inherited = ThreadMask();
  int first = 0;
  while (!CPU_ISSET(first, &inherited)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  SetThreadMask(one);
  {
    const CoreLease lease;
    const cpu_set_t during = ThreadMask();
    EXPECT_TRUE(CPU_EQUAL(&during, &one));
    EXPECT_EQ(TotalLeases(), 0u);
  }
  SetThreadMask(inherited);
}

// `threads` threads started from this one hold a lease each at once;
// returns the live leases per CPU while they all hold, then releases.
std::vector<uint32_t> HoldAtOnce(size_t threads) {
  std::latch held(static_cast<std::ptrdiff_t>(threads));
  std::latch release(1);
  std::vector<std::thread> holders;
  for (size_t i = 0; i < threads; ++i) {
    holders.emplace_back([&] {
      const CoreLease lease;
      held.count_down();
      release.wait();
    });
  }
  held.wait();
  std::vector<uint32_t> leases(CPU_SETSIZE);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) leases[cpu] = LeasesOn(cpu);
  release.count_down();
  for (std::thread& t : holders) t.join();
  return leases;
}

TEST(CoreLeaseTest, ConcurrentLeasesSpreadEvenlyAndReturnToZero) {
  // Counts only grow while every lease is held, so each claim lands on a
  // CPU with the fewest: m leases over m CPUs take one each, 2m take two.
  const cpu_set_t mask = ThreadMask();
  const size_t m = static_cast<size_t>(CPU_COUNT(&mask));
  if (m < 2) GTEST_SKIP() << "needs 2 allowed CPUs";
  for (uint32_t per_cpu : {1u, 2u, 1u}) {
    const std::vector<uint32_t> leases = HoldAtOnce(m * per_cpu);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      EXPECT_EQ(leases[cpu], CPU_ISSET(cpu, &mask) ? per_cpu : 0u)
          << "cpu " << cpu;
    }
    EXPECT_EQ(TotalLeases(), 0u);
  }
}

}  // namespace
}  // namespace pmkm
