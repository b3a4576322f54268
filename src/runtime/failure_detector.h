// FailureDetector: heartbeat-based crash detection over the simulated
// network, so the cluster notices dead hosts ON ITS OWN instead of being
// told by the KillHost oracle.
//
// Every FaasmInstance publishes a periodic heartbeat (instance.cc: a
// dedicated activity Sends one small message per kHeartbeatIntervalNs to
// the detector's mailbox endpoint). The detector runs as its own activity
// on the shared virtual-time executor, so detection is deterministic: it
// drains its mailbox, tracks a per-host last-seen timestamp, and moves each
// host through a three-state machine:
//
//   alive ──(no heartbeat for kSuspicionTimeoutNs)──▶ suspect
//   suspect ──(direct probe answers)──▶ alive          (false positive: a
//                                                       slow host, cleared)
//   suspect ──(probe fails kUnavailable)──▶ dead       (confirmed: endpoint
//                                                       gone = crashed)
//
// SUSPICION ALONE NEVER KILLS. Before confirming a death the detector
// corroborates with a direct probe RPC at the host's own endpoint: a killed
// host's endpoints unregistered atomically with the crash, so the probe
// fails kUnavailable; a merely slow host (heartbeats delayed past the
// timeout) still answers, clears its suspicion, and is never failed over —
// which is what makes false-positive promotion (two masters for one key)
// impossible by construction.
//
// CLIENT EVIDENCE ACCELERATES. KvsClient reports kUnavailable bounces as
// suspicion hints (ReportSuspicion) instead of only silently retrying: a
// hinted host is probed on the next sweep without waiting for the heartbeat
// timeout, so under live traffic detection latency approaches one sweep
// quantum instead of the full suspicion window.
//
// On confirmation the detector invokes its DeathHandler exactly once per
// host — wired by FaasmCluster to HandleConfirmedDeath, the shared recovery
// entry (fence → quiesce → Failover → Reconcile) that the KillHost oracle
// also drives. Dead is terminal: a zombie's late heartbeat cannot resurrect
// a host that has already been failed over.
#ifndef FAASM_RUNTIME_FAILURE_DETECTOR_H_
#define FAASM_RUNTIME_FAILURE_DETECTOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/network.h"

namespace faasm {

// Mailbox endpoint heartbeats are Sent to (and the probe's source name).
inline constexpr char kFailureDetectorEndpoint[] = "fd";
// Heartbeat period of every host.
inline constexpr TimeNs kHeartbeatIntervalNs = 5 * kMillisecond;
// Silence threshold: alive -> suspect once now - last_seen exceeds this.
inline constexpr TimeNs kSuspicionTimeoutNs = 20 * kMillisecond;
// Sweep period of the detector activity: half the heartbeat period, so
// confirmation lands within kSuspicionTimeoutNs + one heartbeat interval of
// the crash (the latency bound the bench gates).
inline constexpr TimeNs kSweepIntervalNs = kHeartbeatIntervalNs / 2;

enum class HostHealth { kAlive, kSuspect, kDead };

// One confirmed death (detection-latency accounting: benches subtract their
// recorded kill time from confirmed_at_ns).
struct DeathRecord {
  std::string host;
  TimeNs confirmed_at_ns = 0;
  // True when a client suspicion hint (not the heartbeat timeout) triggered
  // the confirming probe.
  bool hinted = false;
};

// Heartbeat wire format (mailbox payload): "hb <host>". Kept trivially
// parseable — the payload's only job is to cost honest bytes on the wire.
Bytes EncodeHeartbeat(const std::string& host);
// Returns the host name, or "" for a malformed message.
std::string DecodeHeartbeat(const Bytes& message);

class FailureDetector {
 public:
  // Invoked from the detector activity, exactly once per confirmed death,
  // BEFORE the death becomes visible in deaths()/death_count() — so a
  // caller that waited out death_count() observes completed recovery.
  using DeathHandler = std::function<void(const std::string& host)>;

  FailureDetector(InProcNetwork* network, Clock* clock, DeathHandler on_death);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  // Membership: Track() arms monitoring (last-seen initialised to now, so a
  // freshly added host gets a full suspicion window before its first
  // heartbeat is due). Forget() disarms it — graceful removal must call it
  // BEFORE the host stops heartbeating, or retirement reads as a crash.
  void Track(const std::string& host);
  void Forget(const std::string& host);

  // Client-side evidence: some client's op at `endpoint` bounced with
  // kUnavailable ("kvs:<host>" / "rep:<host>" / bare host names all
  // accepted). Thread-safe; schedules a corroborating probe on the next
  // sweep instead of waiting for the heartbeat timeout.
  void ReportSuspicion(const std::string& endpoint);

  // The detector activity body: sweep loop until Stop(). Run on a
  // clock-registered thread (SimExecutor::Spawn).
  void Run();
  void Stop() { stop_.store(true); }

  // One sweep, exposed for deterministic unit tests (Run is just
  // sweep-sleep-repeat).
  void Sweep();

  HostHealth HealthOf(const std::string& host) const;
  std::vector<DeathRecord> deaths() const;
  size_t death_count() const { return death_count_.load(); }
  uint64_t heartbeats_seen() const { return heartbeats_seen_.load(); }
  uint64_t suspicions() const { return suspicions_.load(); }
  // Suspicions cleared by a successful probe: the flap counter — every one
  // of these is a failover a timeout-only detector would have run falsely.
  uint64_t false_suspicions() const { return false_suspicions_.load(); }
  uint64_t hints() const { return hints_.load(); }

 private:
  struct HostState {
    TimeNs last_seen = 0;
    HostHealth health = HostHealth::kAlive;
    bool hinted = false;  // probe on next sweep regardless of timeout
  };

  void DrainMailbox();
  // Direct liveness check: Call the host's own endpoint. Alive hosts answer
  // (handlers run even when the dispatcher is slow); crashed hosts'
  // endpoints are unregistered, so the call fails kUnavailable.
  bool ProbeAlive(const std::string& host);
  void ConfirmDeath(const std::string& host, bool hinted);

  InProcNetwork* network_;
  Clock* clock_;
  DeathHandler on_death_;

  mutable std::mutex mutex_;
  std::map<std::string, HostState> hosts_;
  std::vector<DeathRecord> deaths_;

  std::atomic<bool> stop_{false};
  std::atomic<size_t> death_count_{0};
  std::atomic<uint64_t> heartbeats_seen_{0};
  std::atomic<uint64_t> suspicions_{0};
  std::atomic<uint64_t> false_suspicions_{0};
  std::atomic<uint64_t> hints_{0};
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_FAILURE_DETECTOR_H_
