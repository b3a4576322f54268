// LocalTier: the per-host registry of state replicas (Fig. 4). All Faaslets
// on a host share one LocalTier, which is exactly what lets them share
// replicas in memory instead of holding private copies.
#ifndef FAASM_STATE_LOCAL_TIER_H_
#define FAASM_STATE_LOCAL_TIER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "state/state_key_value.h"

namespace faasm {

class LocalTier {
 public:
  LocalTier(KvsClient* kvs, Clock* clock) : kvs_(kvs), clock_(clock) {}

  // Returns (creating on demand) the replica handle for `key`.
  std::shared_ptr<StateKeyValue> Lookup(const std::string& key);

  // Total bytes held in this host's local tier (for footprint accounting).
  size_t resident_bytes() const;

  size_t key_count() const;

  // Pulls every listed key's whole value in at most one kGetBatch RPC per
  // master endpoint (grouped and pipelined like DispatchBatch) and installs
  // each into its replica via InstallPulled, so the keys' next Pull() is
  // free. (The unbatched read pattern is a Pull() per key instead.) Returns
  // the first error (a missing key is an error; prefetch what exists).
  // Rides the client's full read path: keys this host backs are served by
  // the co-located replica in-process (DispatchBatch's tier two) and never
  // reach a wire group.
  Status Prefetch(const std::vector<std::string>& keys);

  // Write twin of Prefetch: pushes every listed key's dirty ranges (what
  // each one's Push() would ship) in one OpBatch, so K keys mastered on M
  // hosts cost at most one kBatch RPC per master endpoint, pipelined, and
  // the master-local group runs in process. (The unbatched write pattern is
  // a Push() per key instead.) Returns when every op is settled: each op's
  // ack runs the replica's push bookkeeping, so a key whose op failed has
  // its ranges dirty again. Returns the first error.
  Status Push(const std::vector<std::string>& keys);

  // Drops every replica (host teardown in tests).
  void Clear();

  Clock* clock() { return clock_; }

 private:
  KvsClient* kvs_;
  Clock* clock_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<StateKeyValue>> values_;
};

}  // namespace faasm

#endif  // FAASM_STATE_LOCAL_TIER_H_
