// InvocationContext: the language-level face of the Faaslet host interface
// (Table 2). Workload functions are written once against this interface and
// run unmodified on both platforms, exactly as the paper's evaluation does
// ("all experiments are implemented using the same code for both FAASM and
// Knative", §6.1):
//   - FAASM:   Faaslet implements it with the shared local tier, direct
//              memory sharing and Proto-Faaslet restores.
//   - Knative: ContainerContext implements it with a private per-container
//              tier, so every state access ships data from the global tier.
#ifndef FAASM_CORE_INVOCATION_CONTEXT_H_
#define FAASM_CORE_INVOCATION_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "state/local_tier.h"

namespace faasm {

class InvocationContext {
 public:
  virtual ~InvocationContext() = default;

  // --- Calls (read_call_input / write_call_output / chain / await) ----------
  virtual const Bytes& Input() const = 0;
  virtual void WriteOutput(Bytes output) = 0;
  virtual Result<uint64_t> ChainCall(const std::string& function, Bytes input) = 0;
  virtual Result<int> AwaitCall(uint64_t call_id) = 0;
  virtual Result<Bytes> GetCallOutput(uint64_t call_id) = 0;

  // --- State -------------------------------------------------------------------
  // The tier this invocation sees. On FAASM this is the host-wide shared
  // local tier; on the container baseline it is private to the container.
  virtual LocalTier& state() = 0;

  // --- Environment ---------------------------------------------------------------
  virtual Clock& clock() = 0;
  virtual Rng& rng() = 0;

  // Charges `ns` of CPU work to this invocation under the host's fair-share
  // model (no-op outside the simulator). Workloads call this with the CPU
  // time their work took (CpuStopwatch) so virtual-time experiments reflect
  // real work, and only their own.
  virtual void ChargeCompute(TimeNs ns) = 0;
};

// A function body implemented natively (stand-in for code the paper compiles
// to WebAssembly; see DESIGN.md substitutions). Returns the call's exit code.
using NativeFn = std::function<int(InvocationContext&)>;

// Convenience: chain `n` calls of `function` with per-index inputs and await
// them all — the chain/await loop pattern of Listing 1.
Result<int> ChainAndAwaitAll(InvocationContext& ctx, const std::string& function,
                             const std::vector<Bytes>& inputs);

}  // namespace faasm

#endif  // FAASM_CORE_INVOCATION_CONTEXT_H_
