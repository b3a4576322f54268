#include "runtime/failure_detector.h"

#include <utility>

#include "kvs/router.h"

namespace faasm {

namespace {
constexpr char kHeartbeatTag[] = "hb ";
constexpr size_t kHeartbeatTagLen = 3;
}  // namespace

Bytes EncodeHeartbeat(const std::string& host) {
  const std::string payload = kHeartbeatTag + host;
  return Bytes(payload.begin(), payload.end());
}

std::string DecodeHeartbeat(const Bytes& message) {
  if (message.size() <= kHeartbeatTagLen ||
      std::string(message.begin(), message.begin() + kHeartbeatTagLen) != kHeartbeatTag) {
    return "";
  }
  return std::string(message.begin() + kHeartbeatTagLen, message.end());
}

FailureDetector::FailureDetector(InProcNetwork* network, Clock* clock, DeathHandler on_death)
    : network_(network), clock_(clock), on_death_(std::move(on_death)) {
  // Register the mailbox endpoint so instance heartbeats (Send) have a live
  // destination; the synchronous handler answers nothing.
  network_->RegisterEndpoint(kFailureDetectorEndpoint, [](const Bytes&) { return Bytes{}; });
}

FailureDetector::~FailureDetector() { network_->UnregisterEndpoint(kFailureDetectorEndpoint); }

void FailureDetector::Track(const std::string& host) {
  std::lock_guard<std::mutex> guard(mutex_);
  HostState& state = hosts_[host];
  state.last_seen = clock_->Now();
  state.health = HostHealth::kAlive;
  state.hinted = false;
}

void FailureDetector::Forget(const std::string& host) {
  std::lock_guard<std::mutex> guard(mutex_);
  hosts_.erase(host);
}

void FailureDetector::ReportSuspicion(const std::string& endpoint) {
  // Accept any of the host's endpoint spellings: "kvs:<host>" (a client's
  // routed op), "rep:<host>" (a forward), or the bare host name.
  std::string host = ShardMap::HostForEndpoint(endpoint);
  if (host.empty()) {
    const size_t colon = endpoint.find(':');
    host = colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
  }
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = hosts_.find(host);
  if (it == hosts_.end() || it->second.health == HostHealth::kDead) {
    return;
  }
  if (!it->second.hinted) {
    it->second.hinted = true;
    hints_.fetch_add(1);
  }
}

void FailureDetector::DrainMailbox() {
  while (auto message = network_->Poll(kFailureDetectorEndpoint)) {
    const std::string host = DecodeHeartbeat(*message);
    if (host.empty()) {
      continue;
    }
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = hosts_.find(host);
    if (it == hosts_.end() || it->second.health == HostHealth::kDead) {
      continue;  // untracked, or a zombie's last words — dead is terminal
    }
    it->second.last_seen = clock_->Now();
    if (it->second.health == HostHealth::kSuspect) {
      it->second.health = HostHealth::kAlive;
      false_suspicions_.fetch_add(1);
    }
    it->second.hinted = false;
    heartbeats_seen_.fetch_add(1);
  }
}

bool FailureDetector::ProbeAlive(const std::string& host) {
  static const Bytes kProbe = {'p', 'i', 'n', 'g'};
  return network_->Call(kFailureDetectorEndpoint, host, kProbe).ok();
}

void FailureDetector::ConfirmDeath(const std::string& host, bool hinted) {
  // The confirmation timestamp is taken BEFORE recovery runs: deaths() prices
  // pure detection latency, not detection + failover.
  const TimeNs confirmed_at = clock_->Now();
  // Recovery runs BEFORE the death becomes observable, so a driver that
  // waited out death_count() == N sees the failover complete too.
  if (on_death_ != nullptr) {
    on_death_(host);
  }
  DeathRecord record;
  record.host = host;
  record.confirmed_at_ns = confirmed_at;
  record.hinted = hinted;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    deaths_.push_back(std::move(record));
  }
  death_count_.fetch_add(1);
}

void FailureDetector::Sweep() {
  DrainMailbox();

  // Decide who needs a probe under the mutex, but probe OUTSIDE it: a probe
  // sleeps virtual time, and client threads calling ReportSuspicion must
  // never block behind that sleep (a registered thread parked in a mutex
  // would stall the virtual clock).
  struct Candidate {
    std::string host;
    bool hinted;
  };
  std::vector<Candidate> probes;
  {
    const TimeNs now = clock_->Now();
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto& [host, state] : hosts_) {
      if (state.health == HostHealth::kDead) {
        continue;
      }
      const bool silent = now - state.last_seen > kSuspicionTimeoutNs;
      if (silent && state.health == HostHealth::kAlive) {
        state.health = HostHealth::kSuspect;
        suspicions_.fetch_add(1);
      }
      if (state.health == HostHealth::kSuspect || state.hinted) {
        probes.push_back({host, state.hinted});
      }
    }
  }

  for (const Candidate& candidate : probes) {
    const bool alive = ProbeAlive(candidate.host);
    bool confirm = false;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto it = hosts_.find(candidate.host);
      if (it == hosts_.end() || it->second.health == HostHealth::kDead) {
        continue;  // Forget() raced the probe, or already confirmed
      }
      if (alive) {
        // False positive (a slow host) or a transient hint: the host
        // answers, so it is NOT failed over — suspicion clears and the
        // silence window restarts from now.
        if (it->second.health == HostHealth::kSuspect) {
          false_suspicions_.fetch_add(1);
        }
        it->second.health = HostHealth::kAlive;
        it->second.last_seen = clock_->Now();
        it->second.hinted = false;
      } else {
        // The endpoint is gone: only a crash unregisters it while the host
        // is tracked. Confirm — through suspect, so the state machine never
        // skips a state even on the hint fast path.
        it->second.health = HostHealth::kDead;
        it->second.hinted = false;
        confirm = true;
      }
    }
    if (confirm) {
      ConfirmDeath(candidate.host, candidate.hinted);
    }
  }
}

void FailureDetector::Run() {
  while (!stop_.load()) {
    Sweep();
    clock_->SleepFor(kSweepIntervalNs);
  }
}

HostHealth FailureDetector::HealthOf(const std::string& host) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = hosts_.find(host);
  return it == hosts_.end() ? HostHealth::kAlive : it->second.health;
}

std::vector<DeathRecord> FailureDetector::deaths() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return deaths_;
}

}  // namespace faasm
