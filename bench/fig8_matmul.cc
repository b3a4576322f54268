// Figure 8: distributed divide-and-conquer matrix multiplication — duration
// and network transfer vs matrix size, FAASM vs container baseline. The
// paper's headline: durations are nearly identical while FAASM ships ~13%
// less data by keeping intermediate results in the local tier.
//
// Sizes are scaled down from the paper's 100..8000 sweep so that the real
// leaf computations finish in seconds on this machine (see EXPERIMENTS.md).
//
// GUEST EXECUTION TIER ABLATION (always runs first): every Polybench kernel
// (workloads/kernels.h) under the interpreter's execution tiers, composed one
// at a time —
//   baseline    switch dispatch + inline bounds checks + no fusion (the seed)
//   +threaded   computed-goto dispatch
//   +guard      guard-page bounds elision (no inline bounds branches)
//   +fused      superinstruction fusion (the shipping default)
// For each kernel, every tier must produce the bit-identical checksum, the
// native twin's checksum, and the identical instructions_retired count; a
// quick OOB probe checks that both bounds tiers still convert a wild access
// into the same trap. The run GATES on gemm's full fast tier reaching >= 2x
// the baseline's interpreted instructions per second; the other kernels'
// speedups are reported, not gated.
//
//   fig8_matmul [--tiny] [--json <path>]
//
// --tiny runs only the ablation at a smaller size (CI smoke); --json writes
// the ablation result (BENCH_guest.json in CI).
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "common/clock.h"
#include "runtime/cluster.h"
#include "wasm/instance.h"
#include "workloads/kernels.h"
#include "workloads/matmul.h"

namespace faasm {
namespace {

// --- Guest execution tier ablation --------------------------------------------

struct GuestTier {
  const char* name;
  wasm::GuestDispatch dispatch;
  wasm::GuestBounds bounds;
  bool fused;
};

constexpr GuestTier kGuestTiers[] = {
    {"baseline", wasm::GuestDispatch::kSwitch, wasm::GuestBounds::kChecked, false},
    {"+threaded", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kChecked, false},
    {"+guard", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kGuardPage, false},
    {"+fused", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kGuardPage, true},
};

struct TierResult {
  double checksum = 0;
  uint64_t retired = 0;
  double seconds = 0;
  double mips = 0;  // interpreted wire instructions per second / 1e6
  bool guard_effective = false;
  bool ok = false;
};

TierResult RunGuestTier(const Kernel& kernel, const GuestTier& tier, uint32_t n, int reps) {
  TierResult result;
  const char* name = kernel.name.c_str();
  auto compiled_fused = kernel.build_wasm();
  if (!compiled_fused.ok()) {
    std::fprintf(stderr, "%s build failed: %s\n", name,
                 compiled_fused.status().ToString().c_str());
    return result;
  }
  auto compiled = compiled_fused.value();
  if (!tier.fused) {
    // Recompile the same decoded module with the fusion peephole off.
    wasm::CompileOptions copts;
    copts.fuse_superinstructions = false;
    auto unfused = wasm::CompileModule(compiled->module, copts);
    if (!unfused.ok()) {
      std::fprintf(stderr, "%s recompile failed: %s\n", name,
                   unfused.status().ToString().c_str());
      return result;
    }
    compiled = unfused.value();
  }
  wasm::InstanceOptions options;
  options.dispatch = tier.dispatch;
  options.bounds = tier.bounds;
  auto instance = wasm::Instance::Create(compiled, nullptr, nullptr, options);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s instantiation failed: %s\n", name,
                 instance.status().ToString().c_str());
    return result;
  }
  auto& inst = *instance.value();
  result.guard_effective = inst.effective_bounds() == wasm::GuestBounds::kGuardPage;

  // Warm-up call: checksum agreement plus page faults out of the timed loop.
  auto warm = inst.CallExport("run", {wasm::MakeI32(static_cast<int32_t>(n))});
  if (!warm.ok()) {
    std::fprintf(stderr, "%s run failed: %s\n", name, warm.status().ToString().c_str());
    return result;
  }
  result.checksum = warm.value()[0].f64;

  // Timed reps: best-of to shed scheduler noise; retired is exact per call.
  double best_mips = 0;
  for (int r = 0; r < reps; ++r) {
    const uint64_t retired_before = inst.instructions_retired();
    Stopwatch watch;
    auto out = inst.CallExport("run", {wasm::MakeI32(static_cast<int32_t>(n))});
    const double seconds = static_cast<double>(watch.ElapsedNs()) / 1e9;
    if (!out.ok() || out.value()[0].f64 != result.checksum) {
      std::fprintf(stderr, "%s rep diverged: %s\n", name, out.status().ToString().c_str());
      return result;
    }
    result.retired = inst.instructions_retired() - retired_before;
    const double mips = static_cast<double>(result.retired) / seconds / 1e6;
    if (mips > best_mips) {
      best_mips = mips;
      result.seconds = seconds;
    }
  }
  result.mips = best_mips;
  result.ok = true;
  return result;
}

// Both bounds tiers must turn a wild access into the same trap. Returns true
// when checked and guard (as instantiated, post any sanitizer downgrade)
// agree on kMemoryOutOfBounds.
bool ProbeOobAgreement() {
  const Kernel& gemm = PolybenchKernels()[0];
  auto compiled = gemm.build_wasm();
  if (!compiled.ok()) {
    return false;
  }
  // run(n) with a huge n indexes far past the heap: every tier must trap.
  for (auto bounds : {wasm::GuestBounds::kChecked, wasm::GuestBounds::kGuardPage}) {
    wasm::InstanceOptions options;
    options.bounds = bounds;
    auto instance = wasm::Instance::Create(compiled.value(), nullptr, nullptr, options);
    if (!instance.ok()) {
      return false;
    }
    auto out = instance.value()->CallExport("run", {wasm::MakeI32(1 << 30)});
    if (out.ok() || out.status().message().find("out of bounds memory access") ==
                        std::string::npos) {
      std::fprintf(stderr, "OOB probe: expected an out-of-bounds trap, got %s\n",
                   out.ok() ? "success" : out.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

// One kernel's row of the ablation: every tier, plus its agreement verdict.
struct KernelAblation {
  std::string name;
  TierResult tiers[4];
  double speedup = 0;  // fast tier MIPS / baseline MIPS
  bool ok = false;     // every tier ran
  bool agree = false;  // checksums == native, retired counts identical
};

struct AblationResult {
  std::vector<KernelAblation> kernels;  // PolybenchKernels() order; gemm first
  bool agree = false;
  bool oob_ok = false;
  bool gated = false;   // whether the 2x gemm gate applied
  bool gate_ok = true;  // gate verdict (true when not applicable)
  uint32_t n = 0;
};

KernelAblation RunKernelAblation(const Kernel& kernel, uint32_t n, int reps) {
  KernelAblation row;
  row.name = kernel.name;
  for (int t = 0; t < 4; ++t) {
    row.tiers[t] = RunGuestTier(kernel, kGuestTiers[t], n, reps);
    const TierResult& r = row.tiers[t];
    if (!r.ok) {
      return row;
    }
    std::printf("%-10s %-12s %16.6f %14llu %12.6f %10.1f\n", kernel.name.c_str(),
                kGuestTiers[t].name, r.checksum, static_cast<unsigned long long>(r.retired),
                r.seconds, r.mips);
  }
  row.ok = true;
  const double native = kernel.native(n);
  row.agree = true;
  for (const TierResult& r : row.tiers) {
    if (r.checksum != native || r.retired != row.tiers[0].retired) {
      row.agree = false;
    }
  }
  row.speedup = row.tiers[0].mips > 0 ? row.tiers[3].mips / row.tiers[0].mips : 0;
  return row;
}

AblationResult RunGuestAblation(uint32_t n, int reps) {
  AblationResult result;
  result.n = n;
  PrintHeader("Guest execution tiers: kernel suite, interpreted MIPS per tier");
  std::printf("%-10s %-12s %16s %14s %12s %10s\n", "kernel", "tier", "checksum", "retired",
              "time(s)", "MIPS");
  result.agree = true;
  for (const Kernel& kernel : PolybenchKernels()) {
    result.kernels.push_back(RunKernelAblation(kernel, n, reps));
    const KernelAblation& row = result.kernels.back();
    if (!row.ok) {
      return result;
    }
    result.agree = result.agree && row.agree;
  }
  result.oob_ok = ProbeOobAgreement();

  // The 2x gate compares gemm's full fast tier against the seed
  // configuration; it only applies when the fast tiers are actually available
  // (sanitizer builds pin the checked tier, and non-GNU compilers lose
  // computed goto). The other kernels are reported, not gated.
  const KernelAblation& gemm = result.kernels[0];
  result.gated = gemm.tiers[3].guard_effective;
  result.gate_ok = !result.gated || gemm.speedup >= 2.0;

  std::printf("\nfast-tier speedup per kernel:");
  for (const KernelAblation& row : result.kernels) {
    std::printf(" %s %.2fx%s", row.name.c_str(), row.speedup, row.agree ? "" : " (DIVERGE)");
  }
  std::printf("\ngemm gate: %.2fx over the seed interpreter (>= 2x%s)\n", gemm.speedup,
              result.gated ? "" : ", skipped: fast tiers unavailable");
  std::printf("agreement: checksums %s native, retired counts %s%s\n",
              result.agree ? "match" : "DIVERGE", result.agree ? "identical" : "DIVERGE",
              result.oob_ok ? ", OOB traps agree" : ", OOB PROBE FAILED");
  return result;
}

bool WriteGuestJson(const std::string& path, const AblationResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig8_matmul\",\n  \"mode\": \"guest-tiers\",\n");
  std::fprintf(f, "  \"n\": %u,\n  \"kernels\": {\n", r.n);
  for (size_t k = 0; k < r.kernels.size(); ++k) {
    const KernelAblation& row = r.kernels[k];
    std::fprintf(f, "    \"%s\": {\"speedup\": %.3f, \"agree\": %s, \"tiers\": {\n",
                 row.name.c_str(), row.speedup, row.agree ? "true" : "false");
    for (int t = 0; t < 4; ++t) {
      std::fprintf(f, "      \"%s\": {\"mips\": %.2f, \"retired\": %llu, \"seconds\": %.6f}%s\n",
                   kGuestTiers[t].name, row.tiers[t].mips,
                   static_cast<unsigned long long>(row.tiers[t].retired), row.tiers[t].seconds,
                   t + 1 < 4 ? "," : "");
    }
    std::fprintf(f, "    }}%s\n", k + 1 < r.kernels.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gate_kernel\": \"gemm\",\n  \"speedup\": %.3f,\n", r.kernels[0].speedup);
  std::fprintf(f, "  \"agree\": %s,\n  \"oob_agree\": %s,\n", r.agree ? "true" : "false",
               r.oob_ok ? "true" : "false");
  std::fprintf(f, "  \"gated\": %s,\n  \"gate_ok\": %s\n}\n", r.gated ? "true" : "false",
               r.gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("[wrote %s]\n", path.c_str());
  return true;
}

// --- Distributed matmul sweep (the paper figure) -------------------------------

struct Point {
  double seconds = 0;
  double network_mb = 0;
  bool ok = false;
};

ClusterConfig MakeClusterConfig() {
  ClusterConfig config;
  config.hosts = 8;
  config.host.cores = 4;
  config.host.memory_bytes = size_t{2} * 1024 * 1024 * 1024;
  config.host.max_concurrent_calls = 96;
  return config;
}

Point RunFaasm(uint32_t n) {
  FaasmCluster cluster(MakeClusterConfig());
  MatmulConfig config;
  config.n = n;
  SeedMatmulInputs(cluster.kvs(), config);
  (void)RegisterMatmulFunctions(cluster.registry());
  Point point;
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    point.ok = RunMatmul(frontend, config).ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  });
  return point;
}

Point RunKnative(uint32_t n) {
  KnativeCluster cluster(MakeClusterConfig(), ContainerModel{});
  MatmulConfig config;
  config.n = n;
  SeedMatmulInputs(cluster.kvs(), config);
  (void)RegisterMatmulFunctions(cluster.registry());
  Point point;
  cluster.Run([&](KnativeCluster::Client& client) {
    const TimeNs start = cluster.clock().Now();
    point.ok = RunMatmul(client, config).ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  });
  return point;
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool tiny = false;
  std::string json_path;
  FlagTable flags;
  flags.AddBool("--tiny", &tiny, "ablation only, smaller kernel size (CI smoke)");
  flags.AddString("--json", &json_path, "write the guest-tier ablation result as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  const AblationResult ablation = RunGuestAblation(tiny ? 40 : 72, tiny ? 3 : 5);
  bool ok = ablation.kernels.size() == PolybenchKernels().size();
  for (const KernelAblation& row : ablation.kernels) {
    ok = ok && row.ok;
  }
  ok = ok && ablation.agree && ablation.oob_ok && ablation.gate_ok;
  if (!json_path.empty() && !WriteGuestJson(json_path, ablation)) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "guest-tier ablation FAILED\n");
    return 1;
  }
  if (tiny) {
    return 0;
  }

  PrintHeader("Figure 8: distributed matmul (64 mult + 9 merge functions per multiply)");
  PrintContainerCalibration(ContainerModel{});
  std::printf("\n%8s | %12s %14s | %12s %14s | %10s\n", "size", "faasm_t(s)", "faasm_net(MB)",
              "kn_t(s)", "kn_net(MB)", "traffic");
  for (uint32_t n : {128u, 256u, 512u, 768u}) {
    Point f = RunFaasm(n);
    Point k = RunKnative(n);
    std::printf("%8u | %12.2f %14.1f | %12.2f %14.1f | %8.1f%%%s\n", n, f.seconds,
                f.network_mb, k.seconds, k.network_mb,
                k.network_mb > 0 ? 100.0 * (k.network_mb - f.network_mb) / k.network_mb : 0.0,
                (f.ok && k.ok) ? "" : " (FAILED)");
  }
  std::printf("\nExpected shape (paper): near-identical durations once warm, with FAASM\n"
              "moving ~13%% less data across all sizes.\n");
  return 0;
}
