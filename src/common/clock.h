// Clock abstraction. Runtime components never call std::chrono directly;
// they take a Clock& so the same code runs against wall-clock time (real
// deployments, micro-benchmarks) and against the deterministic virtual clock
// of the cluster simulator (macro experiments).
#ifndef FAASM_COMMON_CLOCK_H_
#define FAASM_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

namespace faasm {

// Nanoseconds since an arbitrary epoch.
using TimeNs = int64_t;

constexpr TimeNs kMicrosecond = 1000;
constexpr TimeNs kMillisecond = 1000 * kMicrosecond;
constexpr TimeNs kSecond = 1000 * kMillisecond;
constexpr TimeNs kNoDeadline = INT64_MAX;

// The wake target of one awaited condition (a call's completion, a batch's
// last group, a push ack). Waiters park on it through Clock::Wait; whoever
// makes the condition true calls Clock::Wake on it. Every wake bumps the
// generation, which is how a waiter notices a wake that landed between its
// condition check and its park.
class WakeChannel {
 public:
  WakeChannel() = default;
  WakeChannel(const WakeChannel&) = delete;
  WakeChannel& operator=(const WakeChannel&) = delete;

  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }
  // Called by a Clock's Wake, under that clock's mutex.
  void Bump() { generation_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> generation_{0};
};

class Clock {
 public:
  virtual ~Clock() = default;

  // Current time in nanoseconds.
  virtual TimeNs Now() const = 0;

  // Block (really or virtually) for the given duration.
  virtual void SleepFor(TimeNs duration_ns) = 0;

  // Blocks until `ready()` holds or the absolute `deadline_ns` passes, and
  // returns ready()'s final value. The caller wakes only on Wake(channel)
  // or at the deadline, at that exact instant: nothing polls. ready() never
  // runs under the clock's mutex, so it may take other locks and call
  // Now(). Whoever makes ready() true must call Wake(channel) afterwards.
  bool Wait(WakeChannel& channel, const std::function<bool()>& ready,
            TimeNs deadline_ns = kNoDeadline);

  // Makes every waiter parked on `channel` runnable now. Safe from any
  // thread, registered with the clock or not.
  virtual void Wake(WakeChannel& channel) = 0;

 protected:
  // Blocks until `channel`'s generation differs from `seen` or `deadline_ns`
  // passes; returns at once if the generation has already moved.
  virtual void Park(WakeChannel& channel, uint64_t seen, TimeNs deadline_ns) = 0;
};

// Monotonic wall-clock implementation.
class RealClock final : public Clock {
 public:
  TimeNs Now() const override;
  void SleepFor(TimeNs duration_ns) override;
  void Wake(WakeChannel& channel) override;

  // Process-wide instance for call sites that have no injected clock.
  static RealClock& Instance();

 protected:
  void Park(WakeChannel& channel, uint64_t seen, TimeNs deadline_ns) override;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
};

// Measures the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID). This is
// what charges compute to virtual time: a slice that blocks in virtual time,
// or loses its real CPU to other simulated activities, is charged only for
// the work its own thread did. Start and read it on the same thread.
class CpuStopwatch {
 public:
  CpuStopwatch() { Reset(); }
  void Reset() { start_ = ThreadCpuNs(); }
  TimeNs ElapsedNs() const { return ThreadCpuNs() - start_; }

 private:
  static TimeNs ThreadCpuNs();

  TimeNs start_;
};

// Scoped stopwatch measuring real elapsed nanoseconds, independent of any
// injected Clock. For wall-clock metrics; compute is charged by CpuStopwatch.
class Stopwatch {
 public:
  Stopwatch() { Reset(); }
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  TimeNs ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace faasm

#endif  // FAASM_COMMON_CLOCK_H_
