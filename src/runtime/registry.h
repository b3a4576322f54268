// FunctionRegistry: the upload service (§5.2). Wasm binaries are decoded,
// validated and code-generated once at upload; the resulting immutable
// CompiledModule is the "object file" shared by every Faaslet that runs the
// function. Native stand-in functions register here too. A platform may
// install an upload step that every registration runs once; FaasmCluster's
// captures the function's Proto-Faaslet.
#ifndef FAASM_RUNTIME_REGISTRY_H_
#define FAASM_RUNTIME_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>

#include "core/faaslet.h"

namespace faasm {

// Per-function knobs carried into the FunctionSpec.
struct FunctionOptions {
  std::string entrypoint = "main";
  std::string wasm_init_export;
  std::function<Status(InvocationContext&)> native_init;
  uint32_t max_memory_pages = 2048;
  TimeNs simulated_init_ns = 0;
  // Scheduler locality hint: the state key whose master host should be
  // preferred for placement (see FunctionSpec::state_affinity_key).
  std::string state_affinity_key;
};

class FunctionRegistry {
 public:
  // Runs once per registration, on the calling thread, before the function
  // becomes visible; it may fill in the spec, and an error fails the
  // registration.
  using UploadStep = std::function<Status(FunctionSpec&)>;
  void SetUploadStep(UploadStep step) { upload_step_ = std::move(step); }

  // Upload path for user-supplied wasm: full decode + validate + codegen.
  Status UploadWasm(const std::string& name, const Bytes& binary, FunctionOptions options = {});

  // Registers an already-compiled module (used by in-process authors).
  Status RegisterWasm(const std::string& name,
                      std::shared_ptr<const wasm::CompiledModule> module,
                      FunctionOptions options = {});

  Status RegisterNative(const std::string& name, NativeFn fn, FunctionOptions options = {});

  Result<FunctionSpec> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const;

  // The function's state-affinity key ("" when unset or unknown). Scheduling
  // hot path: avoids copying the whole FunctionSpec per submit.
  std::string StateAffinityKey(const std::string& name) const;

 private:
  Status Register(const std::string& name, FunctionSpec spec);

  UploadStep upload_step_;
  mutable std::mutex mutex_;
  std::map<std::string, FunctionSpec> functions_;
};

}  // namespace faasm

#endif  // FAASM_RUNTIME_REGISTRY_H_
