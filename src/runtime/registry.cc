#include "runtime/registry.h"

#include "wasm/decoder.h"

namespace faasm {

namespace {
FunctionSpec SpecFromOptions(const std::string& name, const FunctionOptions& options) {
  FunctionSpec spec;
  spec.name = name;
  spec.entrypoint = options.entrypoint;
  spec.wasm_init_export = options.wasm_init_export;
  spec.native_init = options.native_init;
  spec.max_memory_pages = options.max_memory_pages;
  spec.simulated_init_ns = options.simulated_init_ns;
  spec.state_affinity_key = options.state_affinity_key;
  return spec;
}
}  // namespace

Status FunctionRegistry::UploadWasm(const std::string& name, const Bytes& binary,
                                    FunctionOptions options) {
  FAASM_ASSIGN_OR_RETURN(wasm::Module module, wasm::DecodeModule(binary));
  FAASM_ASSIGN_OR_RETURN(auto compiled, wasm::CompileModule(std::move(module)));
  return RegisterWasm(name, std::move(compiled), std::move(options));
}

Status FunctionRegistry::RegisterWasm(const std::string& name,
                                      std::shared_ptr<const wasm::CompiledModule> module,
                                      FunctionOptions options) {
  FunctionSpec spec = SpecFromOptions(name, options);
  spec.module = std::move(module);
  return Register(name, std::move(spec));
}

Status FunctionRegistry::RegisterNative(const std::string& name, NativeFn fn,
                                        FunctionOptions options) {
  FunctionSpec spec = SpecFromOptions(name, options);
  spec.native = std::move(fn);
  return Register(name, std::move(spec));
}

Status FunctionRegistry::Register(const std::string& name, FunctionSpec spec) {
  if (Contains(name)) {
    return AlreadyExists("function already registered: " + name);
  }
  if (upload_step_ != nullptr) {
    FAASM_RETURN_IF_ERROR(upload_step_(spec));
  }
  std::lock_guard<std::mutex> guard(mutex_);
  if (!functions_.emplace(name, std::move(spec)).second) {
    return AlreadyExists("function already registered: " + name);
  }
  return OkStatus();
}

std::string FunctionRegistry::StateAffinityKey(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = functions_.find(name);
  return it == functions_.end() ? "" : it->second.state_affinity_key;
}

Result<FunctionSpec> FunctionRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return NotFound("no function named '" + name + "'");
  }
  return it->second;
}

bool FunctionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return functions_.count(name) > 0;
}

}  // namespace faasm
