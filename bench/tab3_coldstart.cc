// Table 3: Faaslets vs container cold starts (no-op function) —
// initialisation time, CPU cycles, memory footprint, per-host capacity —
// plus the §6.5 dynamic-language-runtime variant (CPython analogue).
//
// Faaslet/Proto-Faaslet numbers are real measurements on this machine;
// Docker rows are the paper's calibrated constants (no container runtime
// offline; see DESIGN.md).
//
//   tab3_coldstart [--iters=<n>] [--tiny] [--json <path>]
//
// Exits non-zero if the generous cold-start gate fails (creation latency
// regressing by an order of magnitude), or if a cross-host Proto-Faaslet
// image is larger than its pages that hold data plus a 1 KiB header.
#include <x86intrin.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "core/faaslet.h"
#include "core/guest_api.h"
#include "mem/meminfo.h"
#include "mem/page.h"
#include "wasm/decoder.h"
#include "workloads/minivm.h"

namespace faasm {
namespace {

struct BenchEnv {
  RealClock clock;
  InProcNetwork network;
  KvStore store;
  KvsServer server;
  KvsClient kvs;
  LocalTier tier;
  GlobalFileStore files;

  BenchEnv()
      : network(&clock, NoLatency()), server(&store, &network), kvs(&network, "bench-host"),
        tier(&kvs, &clock) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  FaasletEnv Env() {
    FaasletEnv env;
    env.clock = &clock;
    env.tier = &tier;
    env.files = &files;
    env.network = &network;
    env.host_endpoint = "bench-host";
    return env;
  }
};

std::shared_ptr<const wasm::CompiledModule> NoopModule() {
  wasm::ModuleBuilder b;
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  f.I32Const(0);
  f.End();
  auto decoded = wasm::DecodeModule(b.Build());
  return wasm::CompileModule(std::move(decoded).value()).value();
}

struct Measurement {
  double init_ms = 0;
  double cycles = 0;
  double footprint_bytes = 0;
};

// Measures median creation latency + cycles across `iters` creations.
template <typename CreateFn>
Measurement MeasureCreation(CreateFn create, int iters) {
  Summary time_ns;
  Summary cycles;
  for (int i = 0; i < iters; ++i) {
    const uint64_t c0 = __rdtsc();
    Stopwatch watch;
    auto faaslet = create();
    time_ns.Add(static_cast<double>(watch.ElapsedNs()));
    cycles.Add(static_cast<double>(__rdtsc() - c0));
    if (!faaslet.ok()) {
      std::fprintf(stderr, "creation failed: %s\n", faaslet.status().ToString().c_str());
      return {};
    }
  }
  Measurement out;
  out.init_ms = time_ns.Median() / 1e6;
  out.cycles = cycles.Median();
  return out;
}

// RSS delta per instance over a batch of `count` live Faaslets.
template <typename CreateFn>
double MeasureFootprint(CreateFn create, int count) {
  std::vector<std::unique_ptr<Faaslet>> live;
  live.reserve(count);
  const size_t before = CurrentRssBytes();
  for (int i = 0; i < count; ++i) {
    auto faaslet = create();
    if (faaslet.ok()) {
      live.push_back(std::move(faaslet).value());
      // Touch the first page so lazily-mapped memory is resident, matching
      // how a just-executed function would look.
      live.back()->memory().base()[0] = 1;
    }
  }
  const size_t after = CurrentRssBytes();
  return static_cast<double>(after - before) / count;
}

// A Proto-Faaslet restored on another host: its image goes through the
// global tier as bytes.
struct CrossHost {
  Measurement restore;    // Serialize -> Deserialize -> CreateFromProto
  size_t wire_bytes = 0;  // the serialised proto
  size_t image_bytes = 0;  // the image's logical size
  size_t data_pages = 0;  // host pages of the image that are not all zero
};

CrossHost MeasureCrossHost(const FunctionSpec& spec, BenchEnv& env, const Faaslet& prototype,
                           int iters) {
  const std::shared_ptr<const ProtoFaaslet> proto = prototype.proto();
  CrossHost out;
  out.wire_bytes = proto->Serialize().size();
  out.image_bytes = proto->snapshot_bytes();
  const uint8_t* image = prototype.memory().base();
  for (size_t offset = 0; offset < out.image_bytes; offset += kHostPageBytes) {
    const size_t len = std::min(kHostPageBytes, out.image_bytes - offset);
    out.data_pages += std::any_of(image + offset, image + offset + len,
                                  [](uint8_t byte) { return byte != 0; });
  }
  out.restore = MeasureCreation(
      [&]() -> Result<std::unique_ptr<Faaslet>> {
        FAASM_ASSIGN_OR_RETURN(auto shipped, ProtoFaaslet::Deserialize(proto->Serialize()));
        return Faaslet::CreateFromProto(spec, env.Env(), std::move(shipped));
      },
      iters);
  return out;
}

// The image gate: a serialised proto carries its pages that hold data and
// at most a 1 KiB header.
bool ImageWithinPages(const CrossHost& cross) {
  return cross.wire_bytes <= cross.data_pages * kHostPageBytes + 1024;
}

void PrintCrossHost(const char* label, const CrossHost& cross) {
  std::printf("%-34s %10.3f ms (measured: serialise, deserialise, restore)\n", label,
              cross.restore.init_ms);
  std::printf("%-34s %10zu B on the wire for a %zu KB image with %zu data pages\n", "",
              cross.wire_bytes, cross.image_bytes / 1024, cross.data_pages);
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;

  int iters = 300;
  bool tiny = false;
  std::string json_path;
  FlagTable flags;
  flags.AddInt("--iters", &iters, "creation iterations (default 300)");
  flags.AddBool("--tiny", &tiny, "few iterations, skip nothing (CI smoke)");
  flags.AddString("--json", &json_path, "write the measurements as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (tiny) {
    iters = std::min(iters, 20);
  }
  iters = std::max(1, iters);
  const int batch = std::min(200, iters);

  PrintHeader("Table 3: cold-start comparison, no-op function");
  ContainerModel docker;
  PrintContainerCalibration(docker);

  BenchEnv env;
  auto module = NoopModule();

  FunctionSpec spec;
  spec.name = "noop";
  spec.module = module;

  // --- Faaslet: fresh instantiation (decode cached; instantiate + init). ----
  auto create_faaslet = [&] { return Faaslet::Create(spec, env.Env()); };
  Measurement faaslet = MeasureCreation(create_faaslet, iters);

  // --- Proto-Faaslet: restore from snapshot. ---------------------------------
  auto prototype = Faaslet::Create(spec, env.Env()).value();
  auto proto = ProtoFaaslet::CaptureFrom(*prototype).value();
  auto create_proto = [&] { return Faaslet::CreateFromProto(spec, env.Env(), proto); };
  Measurement proto_m = MeasureCreation(create_proto, iters);

  const CrossHost cross = MeasureCrossHost(spec, env, *prototype, iters);

  faaslet.footprint_bytes = MeasureFootprint(create_faaslet, batch);
  proto_m.footprint_bytes = MeasureFootprint(create_proto, batch);

  const double host_memory = 16.0 * 1024 * 1024 * 1024;  // paper testbed host
  const double docker_capacity = host_memory / docker.base_footprint_bytes;
  const double docker_cycles = 2.6e9 * (docker.cold_start_ns / 1e9);  // 2.6 GHz testbed

  std::printf("\n%-22s %14s %14s %16s %12s\n", "", "Docker(calib)", "Faaslet", "Proto-Faaslet",
              "vs Docker");
  std::printf("%-22s %12.1f ms %12.2f ms %14.3f ms %11.0fx\n", "Initialisation",
              docker.cold_start_ns / 1e6, faaslet.init_ms, proto_m.init_ms,
              (docker.cold_start_ns / 1e6) / proto_m.init_ms);
  std::printf("%-22s %14.2e %14.2e %16.2e %11.0fx\n", "CPU cycles", docker_cycles,
              faaslet.cycles, proto_m.cycles, docker_cycles / proto_m.cycles);
  std::printf("%-22s %11.1f MB %12.0f KB %14.0f KB %11.0fx\n", "Memory (RSS delta)",
              docker.base_footprint_bytes / (1024.0 * 1024.0), faaslet.footprint_bytes / 1024.0,
              proto_m.footprint_bytes / 1024.0,
              docker.base_footprint_bytes / proto_m.footprint_bytes);
  std::printf("%-22s %14.0f %14.0f %16.0f %11.1fx\n", "Capacity (16GB host)", docker_capacity,
              host_memory / faaslet.footprint_bytes, host_memory / proto_m.footprint_bytes,
              (host_memory / proto_m.footprint_bytes) / docker_capacity);

  std::printf("\n");
  PrintCrossHost("Cross-host Proto-Faaslet restore", cross);

  // --- §6.5: dynamic-language-runtime no-op (CPython analogue) ----------------
  PrintHeader("Sec 6.5: language-runtime no-op (MiniVM as the CPython analogue)");
  const MviProgram& program = MiniVmBenchmarks()[0];
  auto vm_module = BuildMiniVmWasm(program.code).value();
  FunctionSpec vm_spec;
  vm_spec.name = "minivm";
  vm_spec.module = vm_module;
  vm_spec.entrypoint = "run";

  auto vm_prototype = Faaslet::Create(vm_spec, env.Env()).value();
  auto vm_proto = ProtoFaaslet::CaptureFrom(*vm_prototype).value();
  Measurement vm_cold =
      MeasureCreation([&] { return Faaslet::Create(vm_spec, env.Env()); }, batch);
  Measurement vm_restore = MeasureCreation(
      [&] { return Faaslet::CreateFromProto(vm_spec, env.Env(), vm_proto); }, batch);

  std::printf("%-34s %10.1f ms (calibrated python:3.7-alpine)\n", "Container initialisation",
              docker.python_cold_start_ns / 1e6);
  std::printf("%-34s %10.2f ms (measured)\n", "Faaslet + runtime image cold", vm_cold.init_ms);
  std::printf("%-34s %10.3f ms (measured, %0.0fx vs container)\n", "Proto-Faaslet restore",
              vm_restore.init_ms, (docker.python_cold_start_ns / 1e6) / vm_restore.init_ms);
  const CrossHost vm_cross = MeasureCrossHost(vm_spec, env, *vm_prototype, batch);
  PrintCrossHost("Cross-host Proto-Faaslet restore", vm_cross);

  // Generous no-regression gate: interpreter-side changes (e.g. the 8 GiB
  // guard reservation each linear memory now maps) must not blow up creation
  // latency. The bounds are far above any healthy machine's numbers and only
  // catch order-of-magnitude regressions.
  // The cross-host restore is held to the proto limit, and its image to the
  // pages that hold data.
  const bool latency_ok = faaslet.init_ms < 250.0 && proto_m.init_ms < 50.0 &&
                          cross.restore.init_ms < 50.0 && vm_cross.restore.init_ms < 50.0;
  if (!latency_ok) {
    std::fprintf(stderr,
                 "cold-start gate FAILED: faaslet %.2f ms (limit 250), proto %.3f ms, "
                 "cross-host %.3f ms and %.3f ms (limit 50)\n",
                 faaslet.init_ms, proto_m.init_ms, cross.restore.init_ms,
                 vm_cross.restore.init_ms);
  }
  const bool image_ok = ImageWithinPages(cross) && ImageWithinPages(vm_cross);
  if (!image_ok) {
    std::fprintf(stderr,
                 "image gate FAILED: %zu B and %zu B on the wire for %zu and %zu data "
                 "pages (limit: the pages plus 1024 B)\n",
                 cross.wire_bytes, vm_cross.wire_bytes, cross.data_pages, vm_cross.data_pages);
  }
  const bool gate_ok = latency_ok && image_ok;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"tab3_coldstart\",\n  \"iters\": %d,\n", iters);
    std::fprintf(f, "  \"faaslet\": {\"init_ms\": %.4f, \"footprint_kb\": %.1f},\n",
                 faaslet.init_ms, faaslet.footprint_bytes / 1024.0);
    std::fprintf(f, "  \"proto\": {\"init_ms\": %.4f, \"footprint_kb\": %.1f},\n",
                 proto_m.init_ms, proto_m.footprint_bytes / 1024.0);
    std::fprintf(f,
                 "  \"cross_host\": {\"init_ms\": %.4f, \"wire_bytes\": %zu, "
                 "\"image_bytes\": %zu, \"data_pages\": %zu},\n",
                 cross.restore.init_ms, cross.wire_bytes, cross.image_bytes, cross.data_pages);
    std::fprintf(f,
                 "  \"minivm\": {\"cold_ms\": %.4f, \"restore_ms\": %.4f, "
                 "\"cross_host_ms\": %.4f, \"wire_bytes\": %zu, \"image_bytes\": %zu, "
                 "\"data_pages\": %zu},\n",
                 vm_cold.init_ms, vm_restore.init_ms, vm_cross.restore.init_ms,
                 vm_cross.wire_bytes, vm_cross.image_bytes, vm_cross.data_pages);
    std::fprintf(f, "  \"gate_ok\": %s\n}\n", gate_ok ? "true" : "false");
    std::fclose(f);
    std::printf("\n[wrote %s]\n", json_path.c_str());
  }
  return gate_ok ? 0 : 1;
}
