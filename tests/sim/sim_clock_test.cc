#include "sim/sim_clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sim/cpu_model.h"

namespace faasm {
namespace {

TEST(SimClockTest, SingleThreadSleepAdvances) {
  SimExecutor executor;
  TimeNs observed = -1;
  executor.Spawn([&] {
    executor.clock().SleepFor(5 * kSecond);
    observed = executor.clock().Now();
  });
  executor.JoinAll();
  EXPECT_EQ(observed, 5 * kSecond);
}

TEST(SimClockTest, VirtualTimeIsInstantInRealTime) {
  SimExecutor executor;
  Stopwatch wall;
  executor.Spawn([&] { executor.clock().SleepFor(3600 * kSecond); });  // one virtual hour
  executor.JoinAll();
  EXPECT_LT(wall.ElapsedNs(), kSecond);  // well under a real second
}

TEST(SimClockTest, ParallelSleepersOverlapInVirtualTime) {
  SimExecutor executor;
  std::atomic<TimeNs> end_a{0};
  std::atomic<TimeNs> end_b{0};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      executor.clock().SleepFor(10 * kSecond);
      end_a = executor.clock().Now();
    });
    executor.Spawn([&] {
      executor.clock().SleepFor(10 * kSecond);
      end_b = executor.clock().Now();
    });
  }
  executor.JoinAll();
  // Both finish at t=10s: they overlapped rather than serialised.
  EXPECT_EQ(end_a.load(), 10 * kSecond);
  EXPECT_EQ(end_b.load(), 10 * kSecond);
}

TEST(SimClockTest, OrderingOfStaggeredDeadlines) {
  SimExecutor executor;
  std::vector<int> order;
  std::mutex order_mutex;
  {
    // Keep the clock from advancing while this (unregistered) thread is
    // still spawning activities.
    SimClock::Hold hold(executor.clock());
    for (int i = 3; i >= 1; --i) {
      executor.Spawn([&, i] {
        executor.clock().SleepFor(i * kSecond);
        std::lock_guard<std::mutex> guard(order_mutex);
        order.push_back(i);
      });
    }
  }
  executor.JoinAll();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, WaitForPredicate) {
  SimExecutor executor;
  std::atomic<bool> flag{false};
  std::atomic<TimeNs> waiter_done{0};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      executor.clock().SleepFor(2 * kSecond);
      flag = true;
    });
    executor.Spawn([&] {
      const bool ok = executor.clock().WaitFor([&] { return flag.load(); });
      EXPECT_TRUE(ok);
      waiter_done = executor.clock().Now();
    });
  }
  executor.JoinAll();
  EXPECT_GE(waiter_done.load(), 2 * kSecond);
  EXPECT_LT(waiter_done.load(), 2 * kSecond + 10 * kMillisecond);
}

TEST(SimClockTest, WaitForDeadlineExpires) {
  SimExecutor executor;
  bool result = true;
  executor.Spawn([&] {
    result = executor.clock().WaitFor([] { return false; }, kMillisecond, 100 * kMillisecond);
  });
  executor.JoinAll();
  EXPECT_FALSE(result);
}

// --- Park/wake waits (Clock::Wait / Clock::Wake) ------------------------------

TEST(SimClockWaitTest, WaiterWakesAtWakersExactInstant) {
  SimExecutor executor;
  WakeChannel channel;
  std::atomic<bool> flag{false};
  std::atomic<TimeNs> woke_at{-1};
  constexpr TimeNs kWakeAt = 3 * kMillisecond + 7;  // no polling quantum divides it
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      EXPECT_TRUE(executor.clock().Wait(channel, [&] { return flag.load(); }));
      woke_at = executor.clock().Now();
    });
    executor.Spawn([&] {
      executor.clock().SleepFor(kWakeAt);
      flag = true;
      executor.clock().Wake(channel);
    });
  }
  executor.JoinAll();
  EXPECT_EQ(woke_at.load(), kWakeAt);
}

TEST(SimClockWaitTest, OnlyTheTargetedWaiterWakes) {
  SimExecutor executor;
  WakeChannel channel_a;
  WakeChannel channel_b;
  std::atomic<bool> flag_a{false};
  std::atomic<bool> flag_b{false};
  std::atomic<int> checks_b{0};
  std::atomic<TimeNs> a_woke_at{-1};
  std::atomic<TimeNs> b_woke_at{-1};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      EXPECT_TRUE(executor.clock().Wait(channel_a, [&] { return flag_a.load(); }));
      a_woke_at = executor.clock().Now();
    });
    executor.Spawn([&] {
      EXPECT_TRUE(executor.clock().Wait(channel_b, [&] {
        checks_b.fetch_add(1);
        return flag_b.load();
      }));
      b_woke_at = executor.clock().Now();
    });
    executor.Spawn([&] {
      executor.clock().SleepFor(kSecond);
      flag_a = true;
      executor.clock().Wake(channel_a);
      executor.clock().SleepFor(kSecond);
      flag_b = true;
      executor.clock().Wake(channel_b);
    });
  }
  executor.JoinAll();
  EXPECT_EQ(a_woke_at.load(), kSecond);
  EXPECT_EQ(b_woke_at.load(), 2 * kSecond);
  // One check before parking, one after its own wake: the wake of channel A
  // never re-ran B's predicate.
  EXPECT_EQ(checks_b.load(), 2);
}

TEST(SimClockWaitTest, WakeBetweenCheckAndParkIsNotLost) {
  SimExecutor executor;
  WakeChannel channel;
  bool flag = false;
  bool woke = false;
  bool result = false;
  TimeNs returned_at = -1;
  executor.Spawn([&] {
    // The predicate reports false and only then makes the condition true
    // and wakes: exactly the window between the check and the park. A lost
    // wake would park until the deadline.
    result = executor.clock().Wait(
        channel,
        [&] {
          const bool ready = flag;
          if (!woke) {
            woke = true;
            flag = true;
            executor.clock().Wake(channel);
          }
          return ready;
        },
        kSecond);
    returned_at = executor.clock().Now();
  });
  executor.JoinAll();
  EXPECT_TRUE(result);
  EXPECT_EQ(returned_at, 0);
}

TEST(SimClockWaitTest, DeadlineExpiresAtExactlyTheDeadline) {
  SimExecutor executor;
  WakeChannel channel;
  bool result = true;
  TimeNs returned_at = -1;
  constexpr TimeNs kDeadline = 5 * kMillisecond + 3;
  executor.Spawn([&] {
    result = executor.clock().Wait(channel, [] { return false; }, kDeadline);
    returned_at = executor.clock().Now();
  });
  executor.JoinAll();
  EXPECT_FALSE(result);
  EXPECT_EQ(returned_at, kDeadline);
}

TEST(SimClockWaitTest, ClockHoldsAtTheWakeWhileTheWokenWaiterRuns) {
  SimExecutor executor;
  WakeChannel channel;
  std::atomic<bool> flag{false};
  std::atomic<TimeNs> seen_after_work{-1};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      EXPECT_TRUE(executor.clock().Wait(channel, [&] { return flag.load(); }));
      // Real work while runnable: the clock must not move meanwhile, even
      // though the waker blocks right after waking us and another activity
      // has a deadline due.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      seen_after_work = executor.clock().Now();
    });
    executor.Spawn([&] {
      executor.clock().SleepFor(kMillisecond);
      flag = true;
      executor.clock().Wake(channel);
      executor.clock().SleepFor(10 * kMillisecond);
    });
    executor.Spawn([&] { executor.clock().SleepFor(2 * kMillisecond); });
  }
  executor.JoinAll();
  EXPECT_EQ(seen_after_work.load(), kMillisecond);
}

TEST(SimClockWaitTest, WakeFromAnUnregisteredThread) {
  // The shutdown and crash paths fail calls from the driver's own thread,
  // which is not registered with the clock.
  SimExecutor executor;
  WakeChannel channel;
  std::atomic<bool> flag{false};
  std::atomic<bool> checked{false};
  std::atomic<TimeNs> woke_at{-1};
  executor.Spawn([&] {
    EXPECT_TRUE(executor.clock().Wait(channel, [&] {
      checked = true;
      return flag.load();
    }));
    woke_at = executor.clock().Now();
  });
  while (!checked.load()) {
    std::this_thread::yield();
  }
  flag = true;
  executor.clock().Wake(channel);
  executor.JoinAll();
  EXPECT_EQ(woke_at.load(), 0);
}

TEST(RealClockWaitTest, WakesAndTimesOut) {
  RealClock& clock = RealClock::Instance();
  WakeChannel channel;
  std::atomic<bool> flag{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag = true;
    clock.Wake(channel);
  });
  EXPECT_TRUE(clock.Wait(channel, [&] { return flag.load(); }));
  waker.join();

  const TimeNs deadline = clock.Now() + 2 * kMillisecond;
  EXPECT_FALSE(clock.Wait(channel, [] { return false; }, deadline));
  EXPECT_GE(clock.Now(), deadline);
}

TEST(CpuStopwatchTest, CountsOwnCpuNotBlockedTime) {
  CpuStopwatch cpu;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LT(cpu.ElapsedNs(), 10 * kMillisecond);
  const TimeNs before_work = cpu.ElapsedNs();
  volatile uint64_t sink = 0;
  Stopwatch wall;
  while (cpu.ElapsedNs() - before_work < 3 * kMillisecond && wall.ElapsedNs() < 10 * kSecond) {
    sink = sink + 1;
  }
  EXPECT_GE(cpu.ElapsedNs() - before_work, 3 * kMillisecond);
}

TEST(SimClockTest, NestedSpawnsParticipate) {
  SimExecutor executor;
  std::atomic<TimeNs> child_end{0};
  executor.Spawn([&] {
    executor.clock().SleepFor(kSecond);
    executor.Spawn([&] {
      executor.clock().SleepFor(kSecond);
      child_end = executor.clock().Now();
    });
  });
  executor.JoinAll();  // loops until nested spawns are drained
  EXPECT_EQ(child_end.load(), 2 * kSecond);
}

TEST(CpuModelTest, UndersubscribedRunsAtFullSpeed) {
  SimExecutor executor;
  HostCpuModel cpu(&executor.clock(), 4);
  TimeNs elapsed = 0;
  executor.Spawn([&] {
    HostCpuModel::Running running(cpu);
    const TimeNs start = executor.clock().Now();
    cpu.Charge(100 * kMillisecond);
    elapsed = executor.clock().Now() - start;
  });
  executor.JoinAll();
  EXPECT_EQ(elapsed, 100 * kMillisecond);
}

TEST(CpuModelTest, OversubscriptionSlowsEveryone) {
  SimExecutor executor;
  HostCpuModel cpu(&executor.clock(), 1);
  std::atomic<TimeNs> end_time{0};
  for (int i = 0; i < 4; ++i) {
    executor.Spawn([&] {
      HostCpuModel::Running running(cpu);
      cpu.Charge(100 * kMillisecond);
      TimeNs now = executor.clock().Now();
      TimeNs prev = end_time.load();
      while (now > prev && !end_time.compare_exchange_weak(prev, now)) {
      }
    });
  }
  executor.JoinAll();
  // 4 runners on 1 core: each 100 ms charge stretches to ~400 ms.
  EXPECT_GE(end_time.load(), 350 * kMillisecond);
}

}  // namespace
}  // namespace faasm
