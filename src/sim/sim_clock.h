// SimClock + SimExecutor: deterministic virtual-time execution.
//
// Every simulated activity (a Faaslet invocation, a scheduler, a load
// generator) runs on a real OS thread registered with the SimClock. Threads
// block in SleepFor/SleepUntil; when the last runnable thread blocks, the
// clock jumps to the earliest pending deadline and wakes the threads due at
// it. Real compute executed by a thread is charged explicitly via SleepFor
// (see Faaslet::ChargeCompute), measured as the thread's own CPU time
// (CpuStopwatch), so macro experiments combine really-executed algorithms
// with modelled network/cold-start delays — wall-clock seconds of
// paper-scale experiments complete in milliseconds of virtual bookkeeping.
//
// Condition waits park instead of polling (Clock::Wait/Wake): a parked
// thread is not runnable and, unless it gave a deadline, takes no part in
// choosing the next instant. Wake(channel) makes exactly the threads parked
// on that channel runnable at the waker's instant, counting them runnable
// before the waker can block, so the clock never skips past a wake. The
// predicate is always re-checked outside the clock mutex; the channel's
// generation catches a wake that lands between that check and the park.
//
// WaitFor (polling every quantum) serves drivers and tests, where no
// component owns a channel to wake, and three component waits that still
// poll: FaasmCluster's drain and quiesce waits and the Knative baseline's
// cold-start daemon slot.
#ifndef FAASM_SIM_SIM_CLOCK_H_
#define FAASM_SIM_SIM_CLOCK_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace faasm {

class SimClock final : public Clock {
 public:
  SimClock() = default;

  TimeNs Now() const override;

  // Must be called from a registered thread (as must Wait).
  void SleepFor(TimeNs duration_ns) override;
  void SleepUntil(TimeNs deadline_ns);

  // Callable from any thread, registered or not.
  void Wake(WakeChannel& channel) override;

  // Thread participation. A registered thread counts as runnable until it
  // blocks in SleepFor/SleepUntil or unregisters.
  void RegisterThread();
  void UnregisterThread();

  // RAII hold that keeps the clock from advancing while an *unregistered*
  // thread (e.g. a test main) orchestrates multiple spawns. Without it the
  // clock may advance between two Spawn calls once the already-spawned
  // activities block.
  class Hold {
   public:
    explicit Hold(SimClock& clock) : clock_(clock) { clock_.RegisterThread(); }
    ~Hold() { clock_.UnregisterThread(); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    SimClock& clock_;
  };

  // Polls `pred` every `quantum_ns` of virtual time until it returns true or
  // `deadline_ns` passes. Returns pred()'s final value. New component waits
  // use Wait/Wake.
  bool WaitFor(const std::function<bool()>& pred, TimeNs quantum_ns = 100 * kMicrosecond,
               TimeNs deadline_ns = INT64_MAX);

 protected:
  void Park(WakeChannel& channel, uint64_t seen, TimeNs deadline_ns) override;

 private:
  struct Waiter {
    TimeNs deadline;
    const WakeChannel* channel = nullptr;  // set while parked on a channel
    bool ready = false;
    std::condition_variable cv;
  };

  void SleepUntilLockedImpl(std::unique_lock<std::mutex>& lock, TimeNs deadline_ns);
  void AdvanceIfIdleLocked();

  mutable std::mutex mutex_;
  TimeNs now_ = 0;
  int runnable_ = 0;
  std::vector<Waiter*> waiters_;
};

// Owns a set of worker threads registered with a SimClock. Spawn() starts a
// simulated activity; JoinAll() waits for every activity to finish.
class SimExecutor {
 public:
  SimExecutor() = default;
  ~SimExecutor();

  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  SimClock& clock() { return clock_; }

  void Spawn(std::function<void()> fn);
  void JoinAll();

 private:
  SimClock clock_;
  std::mutex threads_mutex_;
  std::vector<std::thread> threads_;
};

}  // namespace faasm

#endif  // FAASM_SIM_SIM_CLOCK_H_
