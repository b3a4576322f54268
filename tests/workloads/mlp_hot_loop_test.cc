// Pins the serve workload's guest hot loop: the MLP inner product
// (BuildMlpWasmModule) must keep fusing to at most 7 preprocessed
// instructions per multiply-accumulate, and every guest tier — dispatch ×
// bounds × fusion — must retire the same count and return the reference
// class. A peephole change that silently stops fusing this loop fails here
// instead of only showing up as a slower benchmark.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/faaslet.h"
#include "wasm/compiled.h"
#include "workloads/inference.h"

namespace faasm {
namespace {

using wasm::CompiledFunction;
using wasm::CompiledModule;
using wasm::Instr;
using wasm::Op;

struct Loop {
  uint32_t head = 0;  // back-edge target pc
  uint32_t br = 0;    // pc of the back-edge br
};

// Innermost loops of `fn`, in pc order: every backward br whose span holds
// no other backward br. Fusion never moves a loop header or merges across
// one, so the fused and unfused compiles list the same loops in the same
// order.
std::vector<Loop> InnermostLoops(const CompiledFunction& fn) {
  std::vector<Loop> loops;
  for (uint32_t pc = 0; pc < fn.code.size(); ++pc) {
    const Instr& ins = fn.code[pc];
    if (ins.op != static_cast<uint16_t>(Op::kBr) || ins.a > pc) {
      continue;
    }
    // Structured nesting: if this loop encloses any earlier one, it encloses
    // the most recent innermost loop.
    if (!loops.empty() && loops.back().head >= ins.a) {
      continue;
    }
    loops.push_back({ins.a, pc});
  }
  return loops;
}

uint32_t LoopLength(const Loop& loop) { return loop.br - loop.head + 1; }

uint32_t LoopRetired(const CompiledFunction& fn, const Loop& loop) {
  return fn.retired_prefix[loop.br + 1] - fn.retired_prefix[loop.head];
}

bool HasOp(const CompiledFunction& fn, const Loop& loop, Op op) {
  for (uint32_t pc = loop.head; pc <= loop.br; ++pc) {
    if (fn.code[pc].op == static_cast<uint16_t>(op)) {
      return true;
    }
  }
  return false;
}

std::shared_ptr<const CompiledModule> Recompile(const CompiledModule& compiled, bool fused) {
  wasm::CompileOptions options;
  options.fuse_superinstructions = fused;
  auto out = wasm::CompileModule(compiled.module, options);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.value();
}

TEST(MlpHotLoopTest, InnerProductFusesToSevenDispatchesPerMac) {
  auto built = BuildMlpWasmModule(MlpDims{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto fused = Recompile(*built.value(), true);
  const auto unfused = Recompile(*built.value(), false);
  ASSERT_EQ(fused->functions.size(), 1u);
  const CompiledFunction& fused_fn = fused->functions[0];
  const CompiledFunction& unfused_fn = unfused->functions[0];

  const std::vector<Loop> fused_loops = InnermostLoops(fused_fn);
  const std::vector<Loop> unfused_loops = InnermostLoops(unfused_fn);
  ASSERT_EQ(fused_loops.size(), unfused_loops.size());
  int inner_products = 0;
  for (size_t k = 0; k < unfused_loops.size(); ++k) {
    // The unfused body still spells out its f32.mul; fused, it is folded.
    if (!HasOp(unfused_fn, unfused_loops[k], Op::kF32Mul)) {
      continue;
    }
    ++inner_products;
    // One MAC: exit test, in[i] load, w index, w load, accumulate, i += 1, br.
    EXPECT_EQ(LoopLength(unfused_loops[k]), 27u) << "loop " << k;
    EXPECT_LE(LoopLength(fused_loops[k]), 7u) << "loop " << k;
    EXPECT_EQ(LoopRetired(fused_fn, fused_loops[k]), 27u) << "loop " << k;
  }
  EXPECT_EQ(inner_products, 3);  // one per dense layer
}

class MlpTiersTest : public ::testing::Test {
 protected:
  MlpTiersTest()
      : network_(&RealClock::Instance(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &RealClock::Instance()),
        view_(&store_) {
    SeedMlpWeights(view_, dims_);
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  struct Outcome {
    uint32_t label = ~0u;
    uint64_t retired = 0;
  };

  // Runs one inference of `image` in a fresh Faaslet on the given tier.
  Outcome Infer(std::shared_ptr<const CompiledModule> module, wasm::GuestDispatch dispatch,
                wasm::GuestBounds bounds, const std::vector<float>& image) {
    FunctionSpec spec;
    spec.name = "infer";
    spec.module = std::move(module);
    FaasletEnv env;
    env.clock = &RealClock::Instance();
    env.tier = &tier_;
    env.files = &files_;
    env.network = &network_;
    env.host_endpoint = "host-0";
    env.guest_dispatch = dispatch;
    env.guest_bounds = bounds;
    auto faaslet = Faaslet::Create(spec, env);
    EXPECT_TRUE(faaslet.ok()) << faaslet.status().ToString();
    Outcome outcome;
    const uint64_t before = faaslet.value()->instance()->instructions_retired();
    auto code = faaslet.value()->Execute(EncodeImage(image));
    EXPECT_TRUE(code.ok() && code.value() == 0);
    outcome.retired = faaslet.value()->instance()->instructions_retired() - before;
    const Bytes output = faaslet.value()->TakeOutput();
    if (output.size() == sizeof(outcome.label)) {
      std::memcpy(&outcome.label, output.data(), sizeof(outcome.label));
    }
    return outcome;
  }

  const MlpDims dims_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
  GlobalFileStore files_;
  ShardedKvs view_;
};

TEST_F(MlpTiersTest, EveryTierRetiresTheSameCountAndMatchesReference) {
  auto built = BuildMlpWasmModule(dims_);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::shared_ptr<const CompiledModule> modules[2] = {
      Recompile(*built.value(), true), Recompile(*built.value(), false)};
  for (uint64_t request : {0u, 1u}) {
    const std::vector<float> image = SyntheticImage(dims_, request);
    const uint32_t expected = MlpReference(view_, dims_, image);
    uint64_t retired = 0;
    for (auto dispatch : {wasm::GuestDispatch::kSwitch, wasm::GuestDispatch::kThreaded}) {
      for (auto bounds : {wasm::GuestBounds::kChecked, wasm::GuestBounds::kGuardPage}) {
        for (int m = 0; m < 2; ++m) {
          const std::string label = "request " + std::to_string(request) + " dispatch " +
                                    std::to_string(static_cast<int>(dispatch)) + " bounds " +
                                    std::to_string(static_cast<int>(bounds)) +
                                    (m == 0 ? " fused" : " unfused");
          const Outcome outcome = Infer(modules[m], dispatch, bounds, image);
          EXPECT_EQ(outcome.label, expected) << label;
          if (retired == 0) {
            retired = outcome.retired;
          }
          EXPECT_EQ(outcome.retired, retired) << label;
        }
      }
    }
    EXPECT_GT(retired, 100000u);  // the three dense layers actually ran
  }
}

}  // namespace
}  // namespace faasm
