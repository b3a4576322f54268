#include "core/faaslet.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "wasm/decoder.h"

namespace faasm {

// Declared in host_interface.cc: binds the Table 2 API as wasm imports.
void RegisterHostInterface(Faaslet& faaslet, wasm::MapImportResolver& resolver);

std::atomic<uint64_t> Faaslet::next_id_{1};

Faaslet::Faaslet(FunctionSpec spec, FaasletEnv env)
    : spec_(std::move(spec)),
      env_(std::move(env)),
      id_(next_id_.fetch_add(1)),
      rng_(env_.rng_seed ^ id_),
      vfs_(env_.files),
      vnet_shaper_(env_.vnet_rate_bytes_per_sec, env_.vnet_burst_bytes) {}

Faaslet::~Faaslet() = default;

Result<std::unique_ptr<Faaslet>> Faaslet::Create(FunctionSpec spec, FaasletEnv env) {
  if (env.clock == nullptr || env.tier == nullptr || env.files == nullptr) {
    return InvalidArgument("FaasletEnv requires clock, tier and files");
  }
  auto faaslet = std::unique_ptr<Faaslet>(new Faaslet(std::move(spec), std::move(env)));
  FAASM_RETURN_IF_ERROR(faaslet->Instantiate());
  FAASM_RETURN_IF_ERROR(faaslet->RunInitCode());
  faaslet->created_at_ = faaslet->env_.clock->Now();
  // Capture the creation snapshot used to reset between calls. The memory now
  // matches the snapshot exactly, so future resets only need dirty pages.
  FAASM_ASSIGN_OR_RETURN(faaslet->reset_proto_, ProtoFaaslet::CaptureFrom(*faaslet));
  faaslet->memory_->dirty().ClearDirty();
  faaslet->snapshot_synced_ = true;
  return faaslet;
}

Result<std::unique_ptr<Faaslet>> Faaslet::CreateFromProto(
    FunctionSpec spec, FaasletEnv env, std::shared_ptr<const ProtoFaaslet> proto) {
  if (env.clock == nullptr || env.tier == nullptr || env.files == nullptr) {
    return InvalidArgument("FaasletEnv requires clock, tier and files");
  }
  auto faaslet = std::unique_ptr<Faaslet>(new Faaslet(std::move(spec), std::move(env)));
  FAASM_RETURN_IF_ERROR(faaslet->Instantiate());
  FAASM_RETURN_IF_ERROR(proto->RestoreInto(*faaslet));
  faaslet->created_at_ = faaslet->env_.clock->Now();
  faaslet->reset_proto_ = std::move(proto);
  faaslet->snapshot_synced_ = true;  // full CoW restore just ran
  return faaslet;
}

Status Faaslet::Instantiate() {
  uint32_t min_pages = spec_.min_memory_pages;
  uint32_t max_pages = spec_.max_memory_pages;
  if (spec_.module != nullptr && spec_.module->module.memory.has_value()) {
    min_pages = std::max(min_pages, spec_.module->module.memory->min);
    if (spec_.module->module.memory->has_max) {
      max_pages = std::min(max_pages, spec_.module->module.memory->max);
    }
  }
  FAASM_ASSIGN_OR_RETURN(memory_, LinearMemory::Create(min_pages, max_pages));

  if (spec_.module != nullptr) {
    resolver_ = std::make_unique<wasm::MapImportResolver>();
    RegisterHostInterface(*this, *resolver_);
    wasm::InstanceOptions instance_options;
    instance_options.bounds = env_.guest_bounds;
    instance_options.dispatch = env_.guest_dispatch;
    FAASM_ASSIGN_OR_RETURN(instance_, wasm::Instance::Create(spec_.module, resolver_.get(),
                                                             memory_.get(), instance_options));
  } else if (!spec_.native) {
    return InvalidArgument("FunctionSpec has neither wasm module nor native function");
  }
  return OkStatus();
}

Status Faaslet::RunInitCode() {
  if (spec_.simulated_init_ns > 0) {
    env_.clock->SleepFor(spec_.simulated_init_ns);
  }
  if (instance_ != nullptr && !spec_.wasm_init_export.empty()) {
    auto result = instance_->CallExport(spec_.wasm_init_export, {});
    FAASM_RETURN_IF_ERROR(result.status());
  }
  if (spec_.native && spec_.native_init) {
    FAASM_RETURN_IF_ERROR(spec_.native_init(*this));
  }
  return OkStatus();
}

Result<int> Faaslet::Execute(Bytes input) {
  input_ = std::move(input);
  output_.clear();

  if (instance_ != nullptr) {
    auto result = instance_->CallExport(spec_.entrypoint, {});
    if (!result.ok()) {
      return result.status();
    }
    return result.value().empty() ? 0 : static_cast<int>(result.value()[0].i32);
  }
  return spec_.native(*this);
}

Status Faaslet::Reset() {
  if (reset_proto_ == nullptr) {
    return FailedPrecondition("Faaslet has no creation snapshot");
  }
  if (snapshot_synced_) {
    // Warm reset: non-dirty pages still match the snapshot; restore only the
    // pages written since the last reset.
    return reset_proto_->RestoreDirtyInto(*this);
  }
  FAASM_RETURN_IF_ERROR(reset_proto_->RestoreInto(*this));
  snapshot_synced_ = true;
  return OkStatus();
}

void Faaslet::ChargeCompute(TimeNs ns) {
  if (env_.cpu != nullptr) {
    env_.cpu->Charge(ns);
  }
}

Result<uint64_t> Faaslet::ChainCall(const std::string& function, Bytes input) {
  if (!env_.chain) {
    return Unimplemented("chain_call: Faaslet not attached to a runtime");
  }
  // Host-interface sync point of the batched push protocol: the chained
  // call may read state this call pushed, so pending batched ops must be
  // durable before the chain is submitted.
  if (env_.tier != nullptr) {
    FAASM_RETURN_IF_ERROR(env_.tier->FlushBatched());
  }
  return env_.chain(function, std::move(input));
}

Result<int> Faaslet::AwaitCall(uint64_t call_id) {
  if (!env_.await) {
    return Unimplemented("await_call: Faaslet not attached to a runtime");
  }
  // Sync point (see ChainCall): awaiting establishes ordering with the
  // awaited call's observers.
  if (env_.tier != nullptr) {
    FAASM_RETURN_IF_ERROR(env_.tier->FlushBatched());
  }
  return env_.await(call_id);
}

Result<Bytes> Faaslet::GetCallOutput(uint64_t call_id) {
  if (!env_.get_output) {
    return Unimplemented("get_call_output: Faaslet not attached to a runtime");
  }
  return env_.get_output(call_id);
}

Result<uint32_t> Faaslet::MapStateIntoGuest(const std::string& key, size_t len) {
  auto it = guest_state_offsets_.find(key);
  if (it != guest_state_offsets_.end()) {
    return it->second;
  }
  std::shared_ptr<StateKeyValue> kv = env_.tier->Lookup(key);
  FAASM_RETURN_IF_ERROR(kv->EnsureCapacity(len));
  FAASM_ASSIGN_OR_RETURN(uint32_t offset, memory_->MapSharedRegion(kv->region()));
  guest_state_offsets_[key] = offset;
  return offset;
}

size_t Faaslet::FootprintBytes() const {
  size_t bytes = memory_->private_bytes();
  bytes += sizeof(Faaslet);
  if (instance_ != nullptr) {
    bytes += 4096 * sizeof(wasm::Value);  // interpreter stack reservation
  }
  return bytes;
}

void Faaslet::ShapeTraffic(size_t bytes) {
  const TimeNs now = env_.clock->Now();
  const TimeNs ready = vnet_shaper_.NextAvailable(static_cast<double>(bytes), now);
  if (ready > now) {
    env_.clock->SleepFor(ready - now);
  }
  // Oversized transfers already paid for the overflow as wait time; drain at
  // most one burst from the bucket.
  vnet_shaper_.TryConsume(std::min(static_cast<double>(bytes), vnet_shaper_.burst()), ready);
}

Result<Bytes> Faaslet::VnetCall(const std::string& endpoint, const Bytes& request) {
  if (env_.network == nullptr) {
    return Unavailable("Faaslet has no network attached");
  }
  ShapeTraffic(request.size());
  return env_.network->Call(env_.host_endpoint, endpoint, request);
}

// --- Virtual sockets -----------------------------------------------------------

int Faaslet::SocketOpen() {
  const int fd = next_socket_fd_++;
  sockets_[fd] = VSocket{};
  return fd;
}

Status Faaslet::SocketConnect(int fd, const std::string& endpoint) {
  auto it = sockets_.find(fd);
  if (it == sockets_.end()) {
    return InvalidArgument("connect on unknown socket");
  }
  it->second.endpoint = endpoint;
  return OkStatus();
}

Result<size_t> Faaslet::SocketSend(int fd, const uint8_t* data, size_t len) {
  auto it = sockets_.find(fd);
  if (it == sockets_.end()) {
    return InvalidArgument("send on unknown socket");
  }
  if (it->second.endpoint.empty()) {
    return FailedPrecondition("send on unconnected socket");
  }
  it->second.tx.insert(it->second.tx.end(), data, data + len);
  return len;
}

Result<size_t> Faaslet::SocketRecv(int fd, uint8_t* buf, size_t len) {
  auto it = sockets_.find(fd);
  if (it == sockets_.end()) {
    return InvalidArgument("recv on unknown socket");
  }
  VSocket& sock = it->second;
  if (sock.rx_cursor >= sock.rx.size()) {
    // Flush the buffered request through the shaped interface and buffer the
    // response.
    FAASM_ASSIGN_OR_RETURN(Bytes response, VnetCall(sock.endpoint, sock.tx));
    ShapeTraffic(response.size());
    sock.tx.clear();
    sock.rx = std::move(response);
    sock.rx_cursor = 0;
  }
  const size_t n = std::min(len, sock.rx.size() - sock.rx_cursor);
  std::memcpy(buf, sock.rx.data() + sock.rx_cursor, n);
  sock.rx_cursor += n;
  return n;
}

Status Faaslet::SocketClose(int fd) {
  if (sockets_.erase(fd) == 0) {
    return InvalidArgument("close on unknown socket");
  }
  return OkStatus();
}

// --- Dynamic loading -------------------------------------------------------------

Result<uint32_t> Faaslet::DlOpen(const std::string& path) {
  // Load the binary through the filesystem abstraction (same safety pipeline
  // as any uploaded code: decode, validate, then instantiate).
  FAASM_ASSIGN_OR_RETURN(int fd, vfs_.Open(path, VirtualFilesystem::kOpenRead));
  FAASM_ASSIGN_OR_RETURN(auto stat, vfs_.StatPath(path));
  Bytes binary(stat.size);
  FAASM_ASSIGN_OR_RETURN(size_t n, vfs_.Read(fd, binary.data(), binary.size()));
  (void)vfs_.Close(fd);
  if (n != binary.size()) {
    return Internal("dlopen: short read of " + path);
  }
  FAASM_ASSIGN_OR_RETURN(wasm::Module module, wasm::DecodeModule(binary));
  FAASM_ASSIGN_OR_RETURN(auto compiled, wasm::CompileModule(std::move(module)));
  // The loaded module shares this Faaslet's memory — the dynamic-linking
  // convention of a shared address space. It runs on the same guest tiers as
  // the main instance.
  wasm::InstanceOptions dyn_options;
  dyn_options.bounds = env_.guest_bounds;
  dyn_options.dispatch = env_.guest_dispatch;
  FAASM_ASSIGN_OR_RETURN(auto instance, wasm::Instance::Create(compiled, resolver_.get(),
                                                               memory_.get(), dyn_options));
  DynModule dyn;
  dyn.instance = std::move(instance);
  dyn_modules_.push_back(std::move(dyn));
  return static_cast<uint32_t>(dyn_modules_.size() - 1);
}

Result<uint32_t> Faaslet::DlSym(uint32_t handle, const std::string& symbol) {
  if (handle >= dyn_modules_.size()) {
    return InvalidArgument("dlsym: bad handle");
  }
  DynModule& dyn = dyn_modules_[handle];
  if (dyn.instance == nullptr) {
    return FailedPrecondition("dlsym: module closed");
  }
  auto cached = dyn.symbol_ids.find(symbol);
  if (cached != dyn.symbol_ids.end()) {
    return cached->second;
  }
  auto func = dyn.instance->compiled().module.FindExport(symbol, wasm::ExternalKind::kFunction);
  if (!func.has_value()) {
    return NotFound("dlsym: no symbol '" + symbol + "'");
  }
  dyn_symbols_.emplace_back(handle, *func);
  const uint32_t symbol_id = static_cast<uint32_t>(dyn_symbols_.size() - 1);
  dyn.symbol_ids[symbol] = symbol_id;
  return symbol_id;
}

Result<int32_t> Faaslet::DynCall(uint32_t symbol_id, int32_t arg) {
  if (symbol_id >= dyn_symbols_.size()) {
    return InvalidArgument("dyn_call: bad symbol id");
  }
  const auto [handle, func_index] = dyn_symbols_[symbol_id];
  DynModule& dyn = dyn_modules_[handle];
  if (dyn.instance == nullptr) {
    return FailedPrecondition("dyn_call: module closed");
  }
  auto result =
      dyn.instance->CallFunction(func_index, {wasm::MakeI32(static_cast<uint32_t>(arg))});
  if (!result.ok()) {
    return result.status();
  }
  return result.value().empty() ? 0 : static_cast<int32_t>(result.value()[0].i32);
}

Status Faaslet::DlClose(uint32_t handle) {
  if (handle >= dyn_modules_.size() || dyn_modules_[handle].instance == nullptr) {
    return InvalidArgument("dlclose: bad handle");
  }
  dyn_modules_[handle].instance.reset();
  return OkStatus();
}

TimeNs Faaslet::MonotonicTimeNs() const { return env_.clock->Now() - created_at_; }

// --- ProtoFaaslet ------------------------------------------------------------------

Result<std::shared_ptr<const ProtoFaaslet>> ProtoFaaslet::CaptureFrom(const Faaslet& faaslet) {
  auto proto = std::shared_ptr<ProtoFaaslet>(new ProtoFaaslet());
  proto->function_ = faaslet.function();
  // Snapshot only the private prefix: shared regions belong to the state
  // tier, not to the function image.
  const size_t private_bytes = faaslet.memory().private_bytes();
  FAASM_ASSIGN_OR_RETURN(
      proto->snapshot_,
      MemorySnapshot::Capture("proto:" + proto->function_, faaslet.memory().base(),
                              private_bytes));
  if (faaslet.instance_ != nullptr) {
    proto->globals_ = faaslet.instance_->globals();
  }
  return std::shared_ptr<const ProtoFaaslet>(std::move(proto));
}

Status ProtoFaaslet::RestoreCommon(Faaslet& faaslet,
                                   const std::function<Status()>& restore_memory) const {
  if (faaslet.function() != function_) {
    return InvalidArgument("proto-faaslet function mismatch");
  }
  FAASM_RETURN_IF_ERROR(restore_memory());
  if (faaslet.instance_ != nullptr) {
    FAASM_RETURN_IF_ERROR(faaslet.instance_->SetGlobals(globals_));
  }
  faaslet.guest_state_offsets_.clear();
  faaslet.vfs_.Reset();
  faaslet.sockets_.clear();
  faaslet.input_.clear();
  faaslet.output_.clear();
  return OkStatus();
}

Status ProtoFaaslet::RestoreInto(Faaslet& faaslet) const {
  return RestoreCommon(faaslet, [&] { return snapshot_->RestoreInto(*faaslet.memory_); });
}

Status ProtoFaaslet::RestoreDirtyInto(Faaslet& faaslet) const {
  return RestoreCommon(faaslet, [&] { return snapshot_->RestoreDirty(*faaslet.memory_); });
}

Bytes ProtoFaaslet::Serialize() const {
  Bytes out;
  ByteWriter writer(out);
  writer.PutString(function_);
  writer.Put<uint32_t>(static_cast<uint32_t>(globals_.size()));
  for (const wasm::Value& global : globals_) {
    writer.Put<uint64_t>(global.i64);
  }
  writer.PutBytes(snapshot_->Serialize());
  return out;
}

Result<std::shared_ptr<const ProtoFaaslet>> ProtoFaaslet::Deserialize(const Bytes& bytes) {
  auto proto = std::shared_ptr<ProtoFaaslet>(new ProtoFaaslet());
  ByteReader reader(bytes);
  FAASM_ASSIGN_OR_RETURN(proto->function_, reader.GetString());
  FAASM_ASSIGN_OR_RETURN(uint32_t n_globals, reader.Get<uint32_t>());
  for (uint32_t i = 0; i < n_globals; ++i) {
    FAASM_ASSIGN_OR_RETURN(uint64_t bits, reader.Get<uint64_t>());
    proto->globals_.push_back(wasm::MakeI64(bits));
  }
  FAASM_ASSIGN_OR_RETURN(Bytes image, reader.GetBytes());
  FAASM_ASSIGN_OR_RETURN(proto->snapshot_,
                         MemorySnapshot::Deserialize("proto:" + proto->function_, image));
  return std::shared_ptr<const ProtoFaaslet>(std::move(proto));
}

}  // namespace faasm
