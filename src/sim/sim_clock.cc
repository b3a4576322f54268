#include "sim/sim_clock.h"

#include <algorithm>
#include <cassert>

namespace faasm {

TimeNs SimClock::Now() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return now_;
}

void SimClock::RegisterThread() {
  std::lock_guard<std::mutex> guard(mutex_);
  ++runnable_;
}

void SimClock::UnregisterThread() {
  std::lock_guard<std::mutex> guard(mutex_);
  --runnable_;
  AdvanceIfIdleLocked();
}

void SimClock::SleepFor(TimeNs duration_ns) {
  if (duration_ns <= 0) {
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  SleepUntilLockedImpl(lock, now_ + duration_ns);
}

void SimClock::SleepUntil(TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  SleepUntilLockedImpl(lock, deadline_ns);
}

void SimClock::SleepUntilLockedImpl(std::unique_lock<std::mutex>& lock, TimeNs deadline_ns) {
  if (deadline_ns <= now_) {
    return;
  }
  Waiter waiter;
  waiter.deadline = deadline_ns;
  waiters_.push_back(&waiter);
  --runnable_;
  AdvanceIfIdleLocked();
  waiter.cv.wait(lock, [&] { return waiter.ready; });
}

void SimClock::Park(WakeChannel& channel, uint64_t seen, TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Wake bumps the generation under this mutex, so a wake that landed after
  // the caller's predicate check is seen here and the park is skipped.
  if (channel.generation() != seen || deadline_ns <= now_) {
    return;
  }
  Waiter waiter;
  waiter.deadline = deadline_ns;
  waiter.channel = &channel;
  waiters_.push_back(&waiter);
  --runnable_;
  AdvanceIfIdleLocked();
  waiter.cv.wait(lock, [&] { return waiter.ready; });
}

void SimClock::Wake(WakeChannel& channel) {
  std::lock_guard<std::mutex> guard(mutex_);
  channel.Bump();
  // The woken threads count as runnable before this call returns, i.e.
  // before the waker can block, so the clock stays at the wake's instant
  // until they have run.
  auto parked_here = [&](Waiter* w) {
    if (w->channel != &channel) {
      return false;
    }
    w->ready = true;
    ++runnable_;
    w->cv.notify_one();
    return true;
  };
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(), parked_here), waiters_.end());
}

void SimClock::AdvanceIfIdleLocked() {
  while (runnable_ == 0 && !waiters_.empty()) {
    TimeNs min_deadline = INT64_MAX;
    for (Waiter* w : waiters_) {
      min_deadline = std::min(min_deadline, w->deadline);
    }
    if (min_deadline == INT64_MAX) {
      return;  // all threads blocked outside the clock; nothing to advance
    }
    now_ = std::max(now_, min_deadline);
    // Wake every waiter whose deadline has arrived.
    std::vector<Waiter*> remaining;
    remaining.reserve(waiters_.size());
    for (Waiter* w : waiters_) {
      if (w->deadline <= now_) {
        w->ready = true;
        ++runnable_;
        w->cv.notify_one();
      } else {
        remaining.push_back(w);
      }
    }
    waiters_.swap(remaining);
    return;  // woke at least one thread
  }
}

bool SimClock::WaitFor(const std::function<bool()>& pred, TimeNs quantum_ns, TimeNs deadline_ns) {
  while (true) {
    if (pred()) {
      return true;
    }
    if (Now() >= deadline_ns) {
      return pred();
    }
    SleepFor(quantum_ns);
  }
}

SimExecutor::~SimExecutor() { JoinAll(); }

void SimExecutor::Spawn(std::function<void()> fn) {
  std::lock_guard<std::mutex> guard(threads_mutex_);
  // Register on the spawner's side so the clock cannot advance past the new
  // activity's start in the window before the thread begins running.
  clock_.RegisterThread();
  threads_.emplace_back([this, fn = std::move(fn)] {
    fn();
    clock_.UnregisterThread();
  });
}

void SimExecutor::JoinAll() {
  // Joining must not hold the mutex: running activities may Spawn() children.
  // Loop until no new threads appear.
  while (true) {
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> guard(threads_mutex_);
      if (threads_.empty()) {
        return;
      }
      to_join.swap(threads_);
    }
    for (auto& thread : to_join) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }
}

}  // namespace faasm
