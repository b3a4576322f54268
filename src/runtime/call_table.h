// CallTable: cluster-wide call lifecycle bookkeeping (submit -> running ->
// done/failed) plus the per-call metrics (durations, footprints, cold starts)
// the benchmark harnesses aggregate. A call's input is not kept here: it
// travels in the call message to the host that runs the call.
#ifndef FAASM_RUNTIME_CALL_TABLE_H_
#define FAASM_RUNTIME_CALL_TABLE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace faasm {

enum class CallState { kPending, kRunning, kDone, kFailed };

// The call message both platforms send to the host that runs a call (a
// FAASM work-sharing hop, a Knative ingress dispatch): id, function, input.
struct CallMessage {
  uint64_t id = 0;
  std::string function;
  Bytes input;
};
Bytes EncodeCallMessage(uint64_t id, const std::string& function, const Bytes& input);
// A typed error for a truncated or corrupt message, never a partial call.
Result<CallMessage> DecodeCallMessage(const Bytes& bytes);

struct CallRecord {
  uint64_t id = 0;
  std::string function;
  Bytes output;
  int return_code = 0;
  CallState state = CallState::kPending;
  std::string error;
  std::string executed_on;
  bool cold_start = false;
  TimeNs submitted_at = 0;
  TimeNs started_at = 0;
  TimeNs finished_at = 0;
};

class CallTable {
 public:
  explicit CallTable(Clock* clock) : clock_(clock) {}

  uint64_t Create(const std::string& function);

  Status MarkRunning(uint64_t id, const std::string& host, bool cold_start);
  Status Complete(uint64_t id, int return_code, Bytes output);
  Status Fail(uint64_t id, const std::string& error);

  bool IsFinished(uint64_t id) const;
  // Blocks until call `id` is done or failed. Complete/Fail wake the waiter
  // at the instant they run, so it returns at the call's finished_at.
  // Returns false at once for an unknown id.
  bool WaitFinished(uint64_t id);
  Result<CallRecord> Get(uint64_t id) const;  // copies the record
  Result<Bytes> Output(uint64_t id) const;

  std::vector<CallRecord> FinishedRecords() const;

 private:
  struct Entry {
    CallRecord record;
    WakeChannel finished;  // woken by Complete/Fail
  };

  // Stamps the finish time and wakes the call's awaiters. Requires mutex_.
  void FinishLocked(Entry& entry);

  Clock* clock_;
  mutable std::mutex mutex_;
  // std::map never moves its nodes, so a waiter may hold an Entry's channel
  // after the mutex is released.
  std::map<uint64_t, Entry> calls_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_CALL_TABLE_H_
