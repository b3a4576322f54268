// InProcNetwork: the cluster interconnect. All cross-host traffic (KVS
// access, state push/pull, scheduler work sharing, chained calls) flows
// through this layer, which (i) counts every byte — producing the
// "network transfers" series of Figs. 6b and 8b — and (ii) charges
// latency + bandwidth delay to the caller's clock, which under the
// virtual-time executor reproduces the paper's 1 Gbps testbed.
//
// RPC handlers execute synchronously on the caller's thread; services
// (KVS, file server) are internally thread safe.
#ifndef FAASM_NET_NETWORK_H_
#define FAASM_NET_NETWORK_H_

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace faasm {

// The modelled link: the paper's 1 Gbps testbed interconnect.
// One-way base latency per message.
inline constexpr TimeNs kBaseLatencyNs = 100 * kMicrosecond;
// Link bandwidth; 1 Gbps = 125e6 B/s.
inline constexpr double kBandwidthBytesPerSec = 125e6;
// Fixed per-message envelope (Ethernet + IP + TCP headers and the RPC
// frame) charged on every request, response and send IN ADDITION to the
// payload. This is what makes batching visible in the byte accounting: a
// kBatch RPC pays the envelope once for N ops where N single ops pay it N
// times. 64 B approximates the testbed's minimum header cost.
inline constexpr size_t kMessageOverheadBytes = 64;

struct NetworkConfig {
  // When false, Call/Send never sleep (pure byte accounting; real-time mode).
  bool charge_latency = true;
};

struct EndpointStats {
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
  uint64_t tx_messages = 0;
  uint64_t rx_messages = 0;
};

class InProcNetwork {
 public:
  using RpcHandler = std::function<Bytes(const Bytes& request)>;

  explicit InProcNetwork(Clock* clock, NetworkConfig config = {});

  // --- Endpoints -------------------------------------------------------------
  void RegisterEndpoint(const std::string& name, RpcHandler handler);
  void UnregisterEndpoint(const std::string& name);
  // True while `name` is registered. A crashed host's endpoints unregister
  // atomically with the crash, so this doubles as the cheap reachability
  // probe recovery flows use to tell "dead" from "slow" without an RPC.
  bool HasEndpoint(const std::string& name) const;

  // --- Synchronous RPC -------------------------------------------------------
  // Sends `request` from `from` to `to`, runs the handler, returns the
  // response. Charges round-trip latency and transfer time to the caller.
  Result<Bytes> Call(const std::string& from, const std::string& to, const Bytes& request);

  // --- Asynchronous messages (scheduler work sharing, chained calls) ---------
  // Fails with kUnavailable when `to` is not a registered endpoint, so work
  // shared towards a host that already left the cluster bounces to the
  // sender instead of rotting in a dead mailbox.
  Status Send(const std::string& from, const std::string& to, Bytes message);
  std::optional<Bytes> Poll(const std::string& name);
  // Messages queued for `name` but not yet polled (drain barrier: a host may
  // only retire once its mailbox is empty AND its in-flight calls finished).
  size_t PendingCount(const std::string& name) const;

  // --- Accounting -------------------------------------------------------------
  uint64_t total_bytes() const;
  EndpointStats StatsFor(const std::string& name) const;
  void ResetStats();

  Clock& clock() { return *clock_; }
  const NetworkConfig& config() const { return config_; }

 private:
  void ChargeTransfer(size_t bytes);
  void AccountLocked(const std::string& from, const std::string& to, size_t bytes);

  Clock* clock_;
  NetworkConfig config_;

  mutable std::mutex mutex_;
  std::map<std::string, RpcHandler> endpoints_;
  std::map<std::string, std::deque<Bytes>> mailboxes_;
  std::map<std::string, EndpointStats> stats_;
  uint64_t total_bytes_ = 0;
};

}  // namespace faasm

#endif  // FAASM_NET_NETWORK_H_
