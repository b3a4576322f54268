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
  // Settle in-flight batched pushes before the replicas (whose bookkeeping
  // their acks touch) are destroyed. The client must outlive the tier.
  ~LocalTier() { (void)kvs_->FlushBatch(); }

  // Returns (creating on demand) the replica handle for `key`.
  std::shared_ptr<StateKeyValue> Lookup(const std::string& key);

  // Total bytes held in this host's local tier (for footprint accounting).
  size_t resident_bytes() const;

  size_t key_count() const;

  // Flush barrier for the batched push protocol (state_key_value.h): blocks
  // until every state op this host enqueued is durable in the global tier.
  // Cheap no-op when nothing is pending; the runtime calls it at host-
  // interface sync points and at call completion.
  Status FlushBatched() { return kvs_->FlushBatch(); }

  // Read-side twin of the batched push: pulls every listed key's whole value
  // in at most one kGetBatch RPC per master endpoint (grouped and pipelined
  // like DispatchBatch) and installs each into its replica via InstallPulled,
  // so the keys' next Pull() is free. (The unbatched read pattern is a
  // Pull() per key instead.) Returns the first error (a missing key is an
  // error; prefetch what exists). Rides the client's full read path: keys
  // this host backs are served by the co-located replica in-process
  // (DispatchBatch's tier two) and never reach a wire group.
  Status Prefetch(const std::vector<std::string>& keys);

  // Drops every replica (host teardown in tests). Flushes first: a pending
  // batched push holds bookkeeping callbacks into the replicas.
  void Clear();

  KvsClient* kvs() { return kvs_; }
  Clock* clock() { return clock_; }

 private:
  KvsClient* kvs_;
  Clock* clock_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<StateKeyValue>> values_;
};

// RAII batching scope: while alive, every StateKeyValue::Push() on THIS
// ACTIVITY (scopes are thread-local — one Faaslet call's scope never demotes
// a concurrent call's scopeless Push from being its own barrier) defers into
// the host's ambient OpBatch instead of flushing itself; Close() (or
// destruction) is the flush barrier that groups everything enqueued into at
// most one RPC per master endpoint, pipelined across shards. Use around a
// multi-key update step:
//
//   StateBatch batch(ctx.state());
//   for (auto& counter : counters) counter.Push();   // accepted, not yet durable
//   Status pushed = batch.Close();                   // ≤ M round trips, all acked
//
// Close() returns the aggregate status of every op the barrier flushed (the
// per-op acks have all fired by then). Scopes nest; a scope left open by
// mistake is neutralised at call completion, when the runtime flushes the
// batch regardless.
class StateBatch {
 public:
  explicit StateBatch(LocalTier& tier) : kvs_(tier.kvs()) { kvs_->BeginBatchScope(); }
  ~StateBatch() {
    if (!closed_) {
      (void)Close();
    }
  }
  StateBatch(const StateBatch&) = delete;
  StateBatch& operator=(const StateBatch&) = delete;

  Status Close() {
    closed_ = true;
    kvs_->EndBatchScope();
    return kvs_->FlushBatch();
  }

 private:
  KvsClient* kvs_;
  bool closed_ = false;
};

}  // namespace faasm

#endif  // FAASM_STATE_LOCAL_TIER_H_
