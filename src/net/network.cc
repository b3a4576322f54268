#include "net/network.h"

#include <cmath>

namespace faasm {

InProcNetwork::InProcNetwork(Clock* clock, NetworkConfig config)
    : clock_(clock), config_(config) {}

void InProcNetwork::RegisterEndpoint(const std::string& name, RpcHandler handler) {
  std::lock_guard<std::mutex> guard(mutex_);
  endpoints_[name] = std::move(handler);
}

void InProcNetwork::UnregisterEndpoint(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  endpoints_.erase(name);
}

bool InProcNetwork::HasEndpoint(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return endpoints_.count(name) > 0;
}

void InProcNetwork::ChargeTransfer(size_t bytes) {
  if (!config_.charge_latency) {
    return;
  }
  const double transfer_s = static_cast<double>(bytes) / kBandwidthBytesPerSec;
  const TimeNs delay = kBaseLatencyNs + static_cast<TimeNs>(std::llround(transfer_s * 1e9));
  clock_->SleepFor(delay);
}

void InProcNetwork::AccountLocked(const std::string& from, const std::string& to, size_t bytes) {
  stats_[from].tx_bytes += bytes;
  stats_[from].tx_messages += 1;
  stats_[to].rx_bytes += bytes;
  stats_[to].rx_messages += 1;
  total_bytes_ += bytes;
}

Result<Bytes> InProcNetwork::Call(const std::string& from, const std::string& to,
                                  const Bytes& request) {
  // Every message pays the fixed envelope on top of its payload, so the
  // accounting rewards protocols that move the same bytes in fewer
  // messages (the batched KVS ops).
  const size_t overhead = kMessageOverheadBytes;
  RpcHandler handler;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      return Unavailable("no endpoint registered: " + to);
    }
    handler = it->second;
    AccountLocked(from, to, request.size() + overhead);
  }
  ChargeTransfer(request.size() + overhead);
  Bytes response = handler(request);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    AccountLocked(to, from, response.size() + overhead);
  }
  ChargeTransfer(response.size() + overhead);
  return response;
}

Status InProcNetwork::Send(const std::string& from, const std::string& to, Bytes message) {
  const size_t overhead = kMessageOverheadBytes;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (endpoints_.count(to) == 0) {
      // The receiver left (host removal) or never existed: fail fast so the
      // sender can fall back, instead of queueing into a dead mailbox.
      return Unavailable("no endpoint registered: " + to);
    }
    AccountLocked(from, to, message.size() + overhead);
    mailboxes_[to].push_back(std::move(message));
  }
  ChargeTransfer(0);  // latency only; payload + envelope accounted above
  return OkStatus();
}

std::optional<Bytes> InProcNetwork::Poll(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = mailboxes_.find(name);
  if (it == mailboxes_.end() || it->second.empty()) {
    return std::nullopt;
  }
  Bytes message = std::move(it->second.front());
  it->second.pop_front();
  return message;
}

size_t InProcNetwork::PendingCount(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = mailboxes_.find(name);
  return it == mailboxes_.end() ? 0 : it->second.size();
}

uint64_t InProcNetwork::total_bytes() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return total_bytes_;
}

EndpointStats InProcNetwork::StatsFor(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = stats_.find(name);
  return it == stats_.end() ? EndpointStats{} : it->second;
}

void InProcNetwork::ResetStats() {
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.clear();
  total_bytes_ = 0;
}

}  // namespace faasm
