#include "wasm/instance.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <csetjmp>
#include <cstring>
#include <limits>
#include <mutex>

#include "wasm/guard_trap.h"

namespace faasm::wasm {

namespace {

constexpr uint32_t kNullFunc = UINT32_MAX;
// Maximum call-frame depth before a stack-exhaustion trap.
constexpr uint32_t kMaxCallDepth = 1024;
// Maximum operand stack entries (8 bytes each).
constexpr uint32_t kMaxStackValues = 1u << 20;
// Default memory max (wasm pages) when the module declares none.
constexpr uint32_t kDefaultMaxPages = 1u << 12;  // 256 MiB

// --- Float helpers implementing wasm NaN / signed-zero semantics ------------

template <typename F>
F WasmFMin(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<F>::quiet_NaN();
  }
  if (a == b) {
    return std::signbit(a) ? a : b;  // min(+0,-0) = -0
  }
  return a < b ? a : b;
}

template <typename F>
F WasmFMax(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<F>::quiet_NaN();
  }
  if (a == b) {
    return std::signbit(a) ? b : a;  // max(+0,-0) = +0
  }
  return a > b ? a : b;
}

template <typename F, typename I>
Status TruncChecked(F value, F lo, F hi, bool lo_inclusive, I* out) {
  if (std::isnan(value)) {
    return TrapStatus(TrapKind::kInvalidConversion);
  }
  const bool lo_ok = lo_inclusive ? value >= lo : value > lo;
  if (!lo_ok || !(value < hi)) {
    return TrapStatus(TrapKind::kIntegerOverflow);
  }
  *out = static_cast<I>(std::trunc(value));
  return OkStatus();
}

}  // namespace

// --- MapImportResolver -------------------------------------------------------

void MapImportResolver::Register(const std::string& module, const std::string& name, HostFn fn) {
  entries_.emplace_back(module, name, std::move(fn));
}

Result<HostFn> MapImportResolver::Resolve(const Import& import, const FuncType& /*type*/) {
  for (const auto& [module, name, fn] : entries_) {
    if (module == import.module && name == import.name) {
      return fn;
    }
  }
  return NotFound("unresolved import " + import.module + "." + import.name);
}

// --- Instantiation -----------------------------------------------------------

Result<std::unique_ptr<Instance>> Instance::Create(std::shared_ptr<const CompiledModule> compiled,
                                                   ImportResolver* resolver,
                                                   LinearMemory* external_memory,
                                                   const InstanceOptions& options) {
  auto instance = std::unique_ptr<Instance>(new Instance(std::move(compiled), options));
  FAASM_RETURN_IF_ERROR(instance->Instantiate(resolver, external_memory));
  return instance;
}

Status Instance::Instantiate(ImportResolver* resolver, LinearMemory* external_memory) {
  const Module& module = compiled_->module;

  // Resolve the requested execution tiers against what this build supports;
  // the start function (below) already runs on the effective tiers.
  effective_bounds_ = options_.bounds;
  if (effective_bounds_ == GuestBounds::kGuardPage && !GuardTrapSupported()) {
    effective_bounds_ = GuestBounds::kChecked;  // sanitizer builds
  }
#if FAASM_INTERP_COMPUTED_GOTO
  effective_dispatch_ = options_.dispatch;
#else
  effective_dispatch_ = GuestDispatch::kSwitch;
#endif

  // Imports.
  for (const Import& import : module.imports) {
    if (resolver == nullptr) {
      return InvalidArgument("module has imports but no resolver given");
    }
    const FuncType& type = module.types[import.type_index];
    if (type.params.size() > 32) {
      return Unimplemented("imports with >32 params unsupported");
    }
    FAASM_ASSIGN_OR_RETURN(HostFn fn, resolver->Resolve(import, type));
    host_functions_.push_back(std::move(fn));
  }

  // Memory.
  if (external_memory != nullptr) {
    memory_ = external_memory;
    if (module.memory.has_value() && memory_->size_pages() < module.memory->min) {
      const uint32_t delta = module.memory->min - memory_->size_pages();
      if (memory_->Grow(delta) == UINT32_MAX) {
        return ResourceExhausted("external memory smaller than module minimum");
      }
    }
  } else if (module.memory.has_value()) {
    const uint32_t max_pages =
        module.memory->has_max ? module.memory->max : kDefaultMaxPages;
    FAASM_ASSIGN_OR_RETURN(owned_memory_, LinearMemory::Create(module.memory->min, max_pages));
    memory_ = owned_memory_.get();
  }

  // Data segments.
  for (const DataSegment& segment : module.data) {
    if (memory_ == nullptr) {
      return InvalidArgument("data segment without memory");
    }
    FAASM_RETURN_IF_ERROR(memory_->Write(segment.offset, segment.bytes.data(),
                                         segment.bytes.size()));
  }

  // Globals.
  globals_.reserve(module.globals.size());
  for (const GlobalDef& global : module.globals) {
    globals_.push_back(global.init);
  }

  // Table + element segments.
  if (module.table.has_value()) {
    table_.assign(module.table->min, kNullFunc);
    for (const ElementSegment& segment : module.elements) {
      const uint64_t end = static_cast<uint64_t>(segment.offset) + segment.func_indices.size();
      if (end > table_.size()) {
        return OutOfRange("element segment out of table bounds");
      }
      for (size_t i = 0; i < segment.func_indices.size(); ++i) {
        table_[segment.offset + i] = segment.func_indices[i];
      }
    }
  }

  stack_.resize(4096);

  // Start function.
  if (module.start_function.has_value()) {
    auto result = CallFunction(*module.start_function, {});
    FAASM_RETURN_IF_ERROR(result.status());
  }
  return OkStatus();
}

Status Instance::SetGlobals(std::vector<Value> globals) {
  if (globals.size() != globals_.size()) {
    return InvalidArgument("global count mismatch on restore");
  }
  globals_ = std::move(globals);
  return OkStatus();
}

bool Instance::EnsureStack(size_t needed_slots) {
  if (needed_slots <= stack_.size()) {
    return true;
  }
  if (needed_slots > kMaxStackValues) {
    return false;
  }
  size_t new_size = stack_.size() * 2;
  while (new_size < needed_slots) {
    new_size *= 2;
  }
  stack_.resize(std::min<size_t>(new_size, kMaxStackValues));
  return true;
}

Status Instance::PushFrame(uint32_t func_index) {
  if (frames_.size() >= kMaxCallDepth) {
    return TrapStatus(TrapKind::kCallStackExhausted);
  }
  const CompiledFunction& fn = compiled_->function(func_index);
  const uint32_t locals_base = static_cast<uint32_t>(sp_ - fn.param_count);
  if (!EnsureStack(sp_ + fn.local_count + fn.max_operand_height + 8)) {
    return TrapStatus(TrapKind::kValueStackExhausted);
  }
  // Zero-initialise locals.
  for (uint32_t i = 0; i < fn.local_count; ++i) {
    stack_[sp_++] = MakeI64(0);
  }
  frames_.push_back(Frame{&fn, 0, locals_base, static_cast<uint32_t>(sp_)});
  return OkStatus();
}

Status Instance::CallHostFunction(uint32_t func_index) {
  const FuncType& type = compiled_->module.function_type(func_index);
  const size_t n_args = type.params.size();
  Value args[32];
  for (size_t i = 0; i < n_args; ++i) {
    args[i] = stack_[sp_ - n_args + i];
  }
  sp_ -= n_args;
  Value results[2] = {};
  Status status = host_functions_[func_index](*this, args, n_args, results);
  if (!status.ok()) {
    return IsTrap(status) ? status : TrapStatus(TrapKind::kHostError, status.ToString());
  }
  if (!type.results.empty()) {
    if (!EnsureStack(sp_ + 1)) {
      return TrapStatus(TrapKind::kValueStackExhausted);
    }
    stack_[sp_++] = results[0];
  }
  return OkStatus();
}

Result<std::vector<Value>> Instance::CallExport(const std::string& name, std::vector<Value> args) {
  auto index = compiled_->module.FindExport(name, ExternalKind::kFunction);
  if (!index.has_value()) {
    return NotFound("no exported function named '" + name + "'");
  }
  return CallFunction(*index, std::move(args));
}

Result<std::vector<Value>> Instance::CallFunction(uint32_t func_index, std::vector<Value> args) {
  if (func_index >= compiled_->module.num_functions()) {
    return InvalidArgument("function index out of range");
  }
  const FuncType& type = compiled_->module.function_type(func_index);
  if (args.size() != type.params.size()) {
    return InvalidArgument("argument count mismatch: expected " +
                           std::to_string(type.params.size()));
  }

  const size_t saved_sp = sp_;
  const size_t saved_frames = frames_.size();

  if (!EnsureStack(sp_ + args.size())) {
    return TrapStatus(TrapKind::kValueStackExhausted);
  }
  for (const Value& v : args) {
    stack_[sp_++] = v;
  }

  Status status;
  if (compiled_->is_import(func_index)) {
    status = CallHostFunction(func_index);
  } else {
    status = PushFrame(func_index);
    if (status.ok()) {
      status = Run();
    }
  }
  if (!status.ok()) {
    sp_ = saved_sp;
    frames_.resize(saved_frames);
    return status;
  }

  std::vector<Value> results;
  for (size_t i = 0; i < type.results.size(); ++i) {
    results.push_back(stack_[sp_ - type.results.size() + i]);
  }
  sp_ -= type.results.size();
  return results;
}

// --- Interpreter core ---------------------------------------------------------

// RAII accounting for one Run() activation. Keeping the counters in members
// (saved/restored here for nesting through host functions) makes the retired
// count exact on every exit path, including a guard-page longjmp that
// abandons the dispatch loop's stack frame mid-segment.
class Instance::CallScope {
 public:
  explicit CallScope(Instance* instance)
      : instance_(instance),
        entry_depth_(instance->frames_.size() - 1),
        saved_retired_(instance->retired_in_call_),
        saved_block_start_(instance->block_start_pc_) {
    instance->retired_in_call_ = 0;
    instance->block_start_pc_ = instance->frames_.back().pc;
  }

  ~CallScope() {
    uint64_t total = instance_->retired_in_call_;
    if (instance_->frames_.size() > entry_depth_) {
      // Abrupt exit (trap): charge the in-flight segment of the top frame.
      const Frame& top = instance_->frames_.back();
      const uint32_t* prefix = top.fn->retired_prefix.data();
      total += prefix[top.pc] - prefix[instance_->block_start_pc_];
    }
    instance_->instructions_retired_ += total;
    instance_->retired_in_call_ = saved_retired_;
    instance_->block_start_pc_ = saved_block_start_;
  }

  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  Instance* instance_;
  size_t entry_depth_;
  uint64_t saved_retired_;
  uint32_t saved_block_start_;
};

Status Instance::Run() {
  CallScope scope(this);
  if (effective_bounds_ == GuestBounds::kGuardPage && memory_ != nullptr) {
    return RunWithGuard();
  }
  return RunLoop<true>();
}

Status Instance::RunWithGuard() {
  GuardTrapScope guard(memory_->base(), LinearMemory::kReservationBytes);
  if (sigsetjmp(guard.jump_buffer(), 1) != 0) {
    // A guest access faulted on the PROT_NONE tail of the reservation. A
    // store that straddles the committed frontier may have written its first
    // bytes before faulting, so conservatively dirty the frontier page to
    // keep delta extraction sound.
    if (memory_->size_bytes() > 0) {
      memory_->MarkDirty(memory_->size_bytes() - 1, 1);
    }
    return TrapStatus(TrapKind::kMemoryOutOfBounds);
  }
  return RunLoop<false>();
}

template <bool kChecked>
Status Instance::RunLoop() {
#if FAASM_INTERP_COMPUTED_GOTO
  if (effective_dispatch_ == GuestDispatch::kThreaded) {
    return RunThreaded<kChecked>();
  }
#endif
  return RunSwitch<kChecked>();
}

template <bool kChecked>
Status Instance::RunSwitch() {
#define FAASM_THREADED 0
#include "wasm/interp_body.inc"
#undef FAASM_THREADED
}

#if FAASM_INTERP_COMPUTED_GOTO
template <bool kChecked>
Status Instance::RunThreaded() {
#define FAASM_THREADED 1
#include "wasm/interp_body.inc"
#undef FAASM_THREADED
}
#endif

}  // namespace faasm::wasm
