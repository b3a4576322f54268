// Faaslet (§3): the lightweight isolation unit. One Faaslet owns
//   - a WebAssembly instance (or a native function stand-in) plus its
//     bounds-checked linear memory,
//   - shared-memory mappings of state replicas (zero-copy local tier access),
//   - a virtual network interface with token-bucket traffic shaping,
//   - a read-global/write-local filesystem view with fd capabilities,
//   - a CPU fair-share attachment (the cgroup stand-in),
// and implements InvocationContext so workload code sees the Table 2 API.
//
// Faaslets are reset from their creation-time snapshot between calls, which
// is the multi-tenancy guarantee of §5.2: no data from a previous call can
// be observed by the next one.
#ifndef FAASM_CORE_FAASLET_H_
#define FAASM_CORE_FAASLET_H_

#include <map>
#include <memory>
#include <string>

#include "core/invocation_context.h"
#include "core/vfs.h"
#include "mem/linear_memory.h"
#include "mem/snapshot.h"
#include "net/network.h"
#include "net/token_bucket.h"
#include "sim/cpu_model.h"
#include "wasm/instance.h"

namespace faasm {

class ProtoFaaslet;

// What to run inside a Faaslet. Exactly one of `module` / `native` is set.
struct FunctionSpec {
  std::string name;
  std::shared_ptr<const wasm::CompiledModule> module;  // wasm function
  NativeFn native;                                     // native stand-in
  std::string entrypoint = "main";                     // wasm export: () -> i32
  // Optional user-defined initialisation code run once before the creation
  // snapshot is taken (§5.2); for wasm it names an export, for native
  // functions it is a callback.
  std::string wasm_init_export;
  std::function<Status(InvocationContext&)> native_init;
  // The function's memory starts at the module's declared minimum (at least
  // one page) and may grow to this limit.
  uint32_t max_memory_pages = 2048;  // 128 MiB per-function memory limit
  // Models initialisation work that the offline build cannot execute for
  // real (e.g. a dynamic language runtime booting): charged to virtual time
  // at cold start, captured away by Proto-Faaslet snapshots.
  TimeNs simulated_init_ns = 0;
  // Optional state key this function's traffic is centred on. The scheduler
  // uses it as a locality hint: placement prefers the host mastering the
  // key's global-tier shard, whose push/pull cost zero network bytes.
  std::string state_affinity_key;
  // A native stand-in's Proto-Faaslet, captured when it was uploaded. Its
  // code is linked into every host, and so is this image; a wasm function's
  // image ships through the global tier instead (proto:<name>).
  std::shared_ptr<const ProtoFaaslet> native_proto;
};

// Key prefixes the runtime keeps in the global tier: Proto-Faaslet images
// (proto:<function>) and warm-host sets (warm:<function>). A cold start
// restores whatever image parses under proto:<function>, so guests may not
// name these keys: every state and lock import that does traps with
// kPermissionDenied before it touches either tier.
inline constexpr const char* kProtoKeyPrefix = "proto:";
inline constexpr const char* kWarmKeyPrefix = "warm:";
inline std::string ProtoStateKey(const std::string& function) {
  return kProtoKeyPrefix + function;
}
bool IsReservedStateKey(const std::string& key);

// The local-tier locks (lock_state_read / lock_state_write) held by the call
// running in one Faaslet. The lock imports go through it, so a guest
// releases only what it took (an unlock it does not hold fails with
// kFailedPrecondition and leaves the lock as it was), and a lock it would
// have to wait on itself for fails the same way instead of polling forever.
// Faaslet::Execute releases whatever its call still holds.
class HeldLocalLocks {
 public:
  // Takes the read (`write` false) or write lock on `kv` for the call.
  Status Lock(std::shared_ptr<StateKeyValue> kv, bool write);
  Status Unlock(const StateKeyValue& kv, bool write);
  // True when the call holds either lock on `kv`.
  bool Holds(const StateKeyValue& kv) const { return held_.count(&kv) > 0; }
  // Fails with kFailedPrecondition when taking `kv`'s read or write lock
  // would wait on a lock the call holds: its write lock keeps out a reader,
  // and any lock it holds keeps out a writer.
  Status CheckNoSelfWait(const StateKeyValue& kv, bool write) const;
  void ReleaseAll();

 private:
  struct Held {
    std::shared_ptr<StateKeyValue> kv;
    int count = 0;  // read locks held, or -1 for the write lock
  };
  std::map<const StateKeyValue*, Held> held_;
};

// Host-side wiring a Faaslet needs: clock, state tier, network, file store,
// CPU model, and the runtime's chain/await hooks.
struct FaasletEnv {
  Clock* clock = nullptr;
  LocalTier* tier = nullptr;
  GlobalFileStore* files = nullptr;
  InProcNetwork* network = nullptr;  // optional
  std::string host_endpoint;         // network identity for accounting
  HostCpuModel* cpu = nullptr;       // optional
  uint64_t rng_seed = 1;

  std::function<Result<uint64_t>(const std::string&, Bytes)> chain;
  std::function<Result<int>(uint64_t)> await;
  std::function<Result<Bytes>(uint64_t)> get_output;

  // Guest execution tiers (wasm/instance.h); defaults are the fast tiers,
  // downgraded automatically when the build cannot support them.
  wasm::GuestBounds guest_bounds = wasm::GuestBounds::kGuardPage;
  wasm::GuestDispatch guest_dispatch = wasm::GuestDispatch::kThreaded;
};

class Faaslet : public InvocationContext {
 public:
  // Instantiates the function, runs its initialisation code and captures the
  // creation snapshot used by Reset().
  static Result<std::unique_ptr<Faaslet>> Create(FunctionSpec spec, FaasletEnv env);

  // Cold-start fast path (§5.2): instantiates the function skeleton, then
  // restores the Proto-Faaslet snapshot instead of running initialisation
  // code. Works with snapshots captured on other hosts.
  static Result<std::unique_ptr<Faaslet>> CreateFromProto(
      FunctionSpec spec, FaasletEnv env, std::shared_ptr<const ProtoFaaslet> proto);

  ~Faaslet() override;

  const std::string& function() const { return spec_.name; }
  uint64_t id() const { return id_; }
  bool is_wasm() const { return instance_ != nullptr; }

  // Executes one call and returns its exit code. The Faaslet is busy for the
  // duration; callers serialise calls per Faaslet. Local locks the call
  // still holds when it returns or traps are released.
  Result<int> Execute(Bytes input);

  // Restores the creation-time snapshot: private memory, globals, filesystem
  // overlay and state mappings all revert, guaranteeing no information from
  // the previous call is disclosed to the next (§5.2). Once the memory is
  // known to be snapshot-based, resets restore only the pages the linear
  // memory's dirty tracker saw written since the last reset, instead of
  // re-materialising the whole image.
  Status Reset();

  // --- InvocationContext -----------------------------------------------------
  const Bytes& Input() const override { return input_; }
  void WriteOutput(Bytes output) override { output_ = std::move(output); }
  Result<uint64_t> ChainCall(const std::string& function, Bytes input) override;
  Result<int> AwaitCall(uint64_t call_id) override;
  Result<Bytes> GetCallOutput(uint64_t call_id) override;
  LocalTier& state() override { return *env_.tier; }
  Clock& clock() override { return *env_.clock; }
  Rng& rng() override { return rng_; }
  void ChargeCompute(TimeNs ns) override;

  Bytes TakeOutput() { return std::move(output_); }

  // --- Guest-facing state mapping (§3.3) ---------------------------------------
  // Maps the replica of `key` (sized to at least `len`) into the guest linear
  // memory and returns its guest offset. Idempotent per key.
  Result<uint32_t> MapStateIntoGuest(const std::string& key, size_t len);
  // The local-tier locks the running call holds.
  HeldLocalLocks& local_locks() { return local_locks_; }
  // The creation snapshot Reset() restores: the function's Proto-Faaslet.
  std::shared_ptr<const ProtoFaaslet> proto() const { return reset_proto_; }

  // --- Introspection ------------------------------------------------------------
  LinearMemory& memory() { return *memory_; }
  const LinearMemory& memory() const { return *memory_; }
  wasm::Instance* instance() { return instance_.get(); }
  VirtualFilesystem& vfs() { return vfs_; }
  const FunctionSpec& spec() const { return spec_; }
  const FaasletEnv& env() const { return env_; }

  // Approximate private memory footprint (linear memory private pages +
  // interpreter stacks); used alongside real RSS measurements in Table 3.
  size_t FootprintBytes() const;

  // Sends `len` bytes through the Faaslet's shaped virtual interface to a
  // named endpoint and returns the response (client-side networking, §3.2).
  Result<Bytes> VnetCall(const std::string& endpoint, const Bytes& request);

  // --- Virtual sockets (client-side networking, §3.2) -------------------------
  // Sockets buffer sends; the first recv flushes the request through the
  // shaped virtual interface and buffers the peer's response.
  int SocketOpen();
  Status SocketConnect(int fd, const std::string& endpoint);
  Result<size_t> SocketSend(int fd, const uint8_t* data, size_t len);
  Result<size_t> SocketRecv(int fd, uint8_t* buf, size_t len);
  Status SocketClose(int fd);

  // --- Dynamic loading (§3.2 "Dynamic linking") --------------------------------
  // dlopen loads a wasm binary from the virtual filesystem, validates it via
  // the standard pipeline, and instantiates it sharing this Faaslet's linear
  // memory. dlsym returns a process-unique symbol id callable via DynCall.
  Result<uint32_t> DlOpen(const std::string& path);
  Result<uint32_t> DlSym(uint32_t handle, const std::string& symbol);
  Result<int32_t> DynCall(uint32_t symbol_id, int32_t arg);
  Status DlClose(uint32_t handle);

  // Per-tenant monotonic clock (ns since Faaslet creation).
  TimeNs MonotonicTimeNs() const;

 private:
  friend class ProtoFaaslet;

  Faaslet(FunctionSpec spec, FaasletEnv env);

  Status Instantiate();
  Status RunInitCode();
  // Applies shaping delay for `bytes` on the virtual interface.
  void ShapeTraffic(size_t bytes);

  static std::atomic<uint64_t> next_id_;

  FunctionSpec spec_;
  FaasletEnv env_;
  uint64_t id_;
  Rng rng_;
  TimeNs created_at_ = 0;

  std::unique_ptr<LinearMemory> memory_;
  std::unique_ptr<wasm::Instance> instance_;
  std::unique_ptr<wasm::MapImportResolver> resolver_;
  VirtualFilesystem vfs_;
  TokenBucket vnet_shaper_;

  Bytes input_;
  Bytes output_;

  // key -> guest offset of the mapped shared region.
  std::map<std::string, uint32_t> guest_state_offsets_;
  HeldLocalLocks local_locks_;

  // Creation-time snapshot used by Reset().
  std::shared_ptr<const ProtoFaaslet> reset_proto_;
  // True when every non-dirty private page matches reset_proto_ (set after a
  // capture or a full restore); enables the dirty-page-only reset.
  bool snapshot_synced_ = false;

  // Dynamically loaded modules (dlopen) and their symbols.
  struct DynModule {
    std::unique_ptr<wasm::Instance> instance;
    std::map<std::string, uint32_t> symbol_ids;
  };
  std::vector<DynModule> dyn_modules_;
  std::vector<std::pair<uint32_t, uint32_t>> dyn_symbols_;  // (module, func idx)

  // Virtual sockets: fd -> (endpoint, tx buffer, rx buffer+cursor).
  struct VSocket {
    std::string endpoint;
    Bytes tx;
    Bytes rx;
    size_t rx_cursor = 0;
  };
  std::map<int, VSocket> sockets_;
  int next_socket_fd_ = 1000;
};

// Proto-Faaslet (§5.2): an OS-independent snapshot of an initialised Faaslet
// — private linear memory, wasm globals — restorable in O(100 µs) via
// copy-on-write mappings, and serialisable for cross-host restores.
class ProtoFaaslet {
 public:
  static Result<std::shared_ptr<const ProtoFaaslet>> CaptureFrom(const Faaslet& faaslet);
  static Result<std::shared_ptr<const ProtoFaaslet>> Deserialize(const Bytes& bytes);
  // The proto that `stored` (a read of proto:<function>) holds for
  // `function`: fails when the read failed, the bytes do not parse, or the
  // image is another function's.
  static Result<std::shared_ptr<const ProtoFaaslet>> FromStored(const std::string& function,
                                                                const Result<Bytes>& stored);

  Bytes Serialize() const;
  Status RestoreInto(Faaslet& faaslet) const;
  // Delta restore for warm resets: restores only the pages dirtied since the
  // last restore/capture. Valid only when the Faaslet's memory is already
  // based on this snapshot.
  Status RestoreDirtyInto(Faaslet& faaslet) const;

  const std::string& function() const { return function_; }
  size_t snapshot_bytes() const { return snapshot_ == nullptr ? 0 : snapshot_->size(); }

 private:
  ProtoFaaslet() = default;

  // Shared restore tail: memory restore strategy varies, everything else
  // (globals, fs overlay, sockets, state mappings, call I/O) resets the same.
  Status RestoreCommon(Faaslet& faaslet, const std::function<Status()>& restore_memory) const;

  std::string function_;
  std::unique_ptr<MemorySnapshot> snapshot_;
  std::vector<wasm::Value> globals_;
};

}  // namespace faasm

#endif  // FAASM_CORE_FAASLET_H_
