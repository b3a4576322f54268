// Instance: an executing instantiation of a compiled module — globals, table,
// linear memory and a value/call stack. One Faaslet owns one Instance; many
// instances share one immutable CompiledModule.
//
// Execution is a pre-decoded interpreter with two orthogonal fast-path axes,
// both selectable per instance (InstanceOptions) for ablation:
//
//   Bounds tier (GuestBounds)
//     kChecked    every load/store runs LinearMemory::InBounds inline.
//     kGuardPage  no inline checks. LinearMemory reserves the whole
//                 u32-address + u32-offset range PROT_NONE; a wild access
//                 faults and a scoped SIGSEGV handler (wasm/guard_trap.h)
//                 converts the fault into TrapKind::kMemoryOutOfBounds.
//                 Downgraded to kChecked under sanitizers.
//
//   Dispatch tier (GuestDispatch)
//     kSwitch     classic switch dispatch loop.
//     kThreaded   computed-goto threaded dispatch (GNU extension); each
//                 handler ends in its own indirect branch. Downgraded to
//                 kSwitch when the compiler lacks the extension.
//
// Either way the wasm security model holds: out-of-bounds accesses trap,
// control flow can only follow validated edges, and indirect calls check
// signatures. An optional fuel limit bounds execution for tests and fair
// scheduling; fuel and instructions_retired are charged per straight-line
// segment (exact, and identical across every tier combination).
#ifndef FAASM_WASM_INSTANCE_H_
#define FAASM_WASM_INSTANCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mem/linear_memory.h"
#include "wasm/compiled.h"

// Computed-goto dispatch needs the GNU labels-as-values extension. Define
// FAASM_NO_COMPUTED_GOTO to force the portable switch loop everywhere.
#if !defined(FAASM_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define FAASM_INTERP_COMPUTED_GOTO 1
#else
#define FAASM_INTERP_COMPUTED_GOTO 0
#endif

namespace faasm::wasm {

class Instance;

// A host function made available to the guest as a function import. `args`
// holds `n_args` values in declaration order; results (0 or 1) are written to
// `results`. A non-OK return becomes a trap in the guest.
using HostFn = std::function<Status(Instance&, const Value* args, size_t n_args, Value* results)>;

// Resolves module/name import pairs to host functions at instantiation time.
class ImportResolver {
 public:
  virtual ~ImportResolver() = default;
  virtual Result<HostFn> Resolve(const Import& import, const FuncType& type) = 0;
};

// Convenience resolver backed by a map of "module.name" -> HostFn.
class MapImportResolver : public ImportResolver {
 public:
  void Register(const std::string& module, const std::string& name, HostFn fn);
  Result<HostFn> Resolve(const Import& import, const FuncType& type) override;

 private:
  std::vector<std::tuple<std::string, std::string, HostFn>> entries_;
};

// How guest memory accesses are bounds-enforced (see file comment).
enum class GuestBounds {
  kChecked,
  kGuardPage,
};

// How the interpreter dispatches opcodes (see file comment).
enum class GuestDispatch {
  kSwitch,
  kThreaded,
};

struct InstanceOptions {
  // Requested execution tiers. Either may be downgraded when the build
  // cannot support it (see Instance::effective_bounds).
  GuestBounds bounds = GuestBounds::kGuardPage;
  GuestDispatch dispatch = GuestDispatch::kThreaded;
};

class Instance {
 public:
  // `external_memory` lets the embedder (the Faaslet) own the linear memory;
  // when null the instance creates and owns one from the module's limits.
  static Result<std::unique_ptr<Instance>> Create(
      std::shared_ptr<const CompiledModule> compiled, ImportResolver* resolver,
      LinearMemory* external_memory = nullptr, const InstanceOptions& options = {});

  // Invokes an exported function.
  Result<std::vector<Value>> CallExport(const std::string& name, std::vector<Value> args);

  // Invokes any function by index (imports included).
  Result<std::vector<Value>> CallFunction(uint32_t func_index, std::vector<Value> args);

  LinearMemory& memory() { return *memory_; }
  const CompiledModule& compiled() const { return *compiled_; }

  // --- Globals (snapshot support) -------------------------------------------
  const std::vector<Value>& globals() const { return globals_; }
  Status SetGlobals(std::vector<Value> globals);

  // --- Execution accounting --------------------------------------------------
  // 0 disables the limit. The budget applies per CallExport/CallFunction.
  void set_fuel_limit(uint64_t fuel) { fuel_limit_ = fuel; }
  // Exact wire-instruction count, updated when the outermost call returns
  // (host functions observing it mid-call see the value at entry).
  uint64_t instructions_retired() const { return instructions_retired_; }

  // The bounds tier actually in effect after build/sanitizer downgrades.
  GuestBounds effective_bounds() const { return effective_bounds_; }

 private:
  struct Frame {
    const CompiledFunction* fn;
    uint32_t pc;
    uint32_t locals_base;   // stack index of param 0
    uint32_t operand_base;  // stack index of the first operand slot
  };

  // RAII accounting for one Run(): zeroes the per-call segment counters on
  // entry and folds them (plus any in-flight segment at an abrupt trap exit,
  // including a guard-page longjmp) into instructions_retired_ on exit.
  class CallScope;

  Instance(std::shared_ptr<const CompiledModule> compiled, const InstanceOptions& options)
      : compiled_(std::move(compiled)), options_(options) {}

  Status Instantiate(ImportResolver* resolver, LinearMemory* external_memory);

  // Runs the interpreter until the entry frame returns. Routes to the
  // effective bounds/dispatch tier.
  Status Run();

  // Guard-page tier: arms the SIGSEGV recovery window, sigsetjmps, and runs
  // the unchecked loop. Lives in its own frame so the setjmp does not
  // constrain the dispatch loop's locals.
  Status RunWithGuard();

  // Picks switch vs threaded dispatch for one bounds tier.
  template <bool kChecked>
  Status RunLoop();

  template <bool kChecked>
  Status RunSwitch();
#if FAASM_INTERP_COMPUTED_GOTO
  template <bool kChecked>
  Status RunThreaded();
#endif

  Status CallHostFunction(uint32_t func_index);

  // Pushes a wasm call frame; args must already be on the stack.
  Status PushFrame(uint32_t func_index);

  bool EnsureStack(size_t needed_slots);

  std::shared_ptr<const CompiledModule> compiled_;
  InstanceOptions options_;

  std::unique_ptr<LinearMemory> owned_memory_;
  LinearMemory* memory_ = nullptr;

  std::vector<Value> globals_;
  std::vector<uint32_t> table_;  // function indices; UINT32_MAX = null
  std::vector<HostFn> host_functions_;

  std::vector<Value> stack_;
  size_t sp_ = 0;
  std::vector<Frame> frames_;

  uint64_t fuel_limit_ = 0;
  uint64_t instructions_retired_ = 0;

  GuestBounds effective_bounds_ = GuestBounds::kChecked;
  GuestDispatch effective_dispatch_ = GuestDispatch::kSwitch;

  // Per-call segment accounting (members, not locals, so a guard-page
  // longjmp cannot clobber them): wire instructions retired by completed
  // segments of the current Run, and the pc where the running straight-line
  // segment of the top frame began.
  uint64_t retired_in_call_ = 0;
  uint32_t block_start_pc_ = 0;
};

}  // namespace faasm::wasm

#endif  // FAASM_WASM_INSTANCE_H_
