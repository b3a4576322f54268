// PollLock: a readers/writer lock whose blocked acquirers poll through a
// Clock instead of parking in the kernel. Under the virtual-time executor a
// thread blocked in a plain mutex would still count as runnable and stall the
// clock; PollLock keeps every wait visible to the clock, so the same state
// code runs identically under RealClock and SimClock.
//
// The internal mutex is held only for counter updates — never across waits.
// An unlock of a lock nobody holds changes nothing: the reader count never
// goes below zero.
#ifndef FAASM_COMMON_POLL_LOCK_H_
#define FAASM_COMMON_POLL_LOCK_H_

#include <mutex>

#include "common/clock.h"

namespace faasm {

class PollLock {
 public:
  explicit PollLock(Clock* clock, TimeNs poll_quantum_ns = 10 * kMicrosecond)
      : clock_(clock), quantum_(poll_quantum_ns) {}

  bool TryLockRead() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (writer_) {
      return false;
    }
    ++readers_;
    return true;
  }

  bool TryLockWrite() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (writer_ || readers_ > 0) {
      return false;
    }
    writer_ = true;
    return true;
  }

  void LockRead() {
    while (!TryLockRead()) {
      clock_->SleepFor(quantum_);
    }
  }

  void LockWrite() {
    while (!TryLockWrite()) {
      clock_->SleepFor(quantum_);
    }
  }

  void UnlockRead() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (readers_ > 0) {
      --readers_;
    }
  }

  void UnlockWrite() {
    std::lock_guard<std::mutex> guard(mutex_);
    writer_ = false;
  }

  // RAII helpers.
  class ReadGuard {
   public:
    explicit ReadGuard(PollLock& lock) : lock_(lock) { lock_.LockRead(); }
    ~ReadGuard() { lock_.UnlockRead(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    PollLock& lock_;
  };

  class WriteGuard {
   public:
    explicit WriteGuard(PollLock& lock) : lock_(lock) { lock_.LockWrite(); }
    ~WriteGuard() { lock_.UnlockWrite(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    PollLock& lock_;
  };

 private:
  Clock* clock_;
  TimeNs quantum_;
  std::mutex mutex_;
  int readers_ = 0;
  bool writer_ = false;
};

}  // namespace faasm

#endif  // FAASM_COMMON_POLL_LOCK_H_
