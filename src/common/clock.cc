#include "common/clock.h"

#include <time.h>

#include <thread>

namespace faasm {

bool Clock::Wait(WakeChannel& channel, const std::function<bool()>& ready, TimeNs deadline_ns) {
  while (true) {
    // Read the generation BEFORE checking: a wake that lands after the check
    // moves it, so the park below returns at once instead of sleeping
    // through the wake.
    const uint64_t seen = channel.generation();
    if (ready()) {
      return true;
    }
    if (Now() >= deadline_ns) {
      return ready();
    }
    Park(channel, seen, deadline_ns);
  }
}

TimeNs RealClock::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealClock::SleepFor(TimeNs duration_ns) {
  if (duration_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration_ns));
  }
}

void RealClock::Wake(WakeChannel& channel) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    channel.Bump();
  }
  cv_.notify_all();
}

void RealClock::Park(WakeChannel& channel, uint64_t seen, TimeNs deadline_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto moved = [&] { return channel.generation() != seen; };
  if (deadline_ns == kNoDeadline) {
    cv_.wait(lock, moved);
    return;
  }
  const std::chrono::steady_clock::time_point deadline(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(deadline_ns)));
  cv_.wait_until(lock, deadline, moved);
}

RealClock& RealClock::Instance() {
  static RealClock clock;
  return clock;
}

TimeNs CpuStopwatch::ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<TimeNs>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

}  // namespace faasm
