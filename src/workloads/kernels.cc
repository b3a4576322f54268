#include "workloads/kernels.h"

#include <cmath>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/instance.h"

namespace faasm {

namespace {

using wasm::BlockType;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::ValType;

// Guest array layout (f64 arrays; n <= 256 so n*n*8 <= 512 KiB per matrix).
constexpr uint32_t kAOff = 0x000000;
constexpr uint32_t kBOff = 0x100000;
constexpr uint32_t kCOff = 0x200000;
constexpr uint32_t kXOff = 0x300000;
constexpr uint32_t kYOff = 0x310000;
constexpr uint32_t kTOff = 0x320000;
constexpr uint32_t kMemPages = 56;  // 3.5 MiB

constexpr int kStencilSteps = 20;

// Shared scaffolding: a module with one exported function "run": (i32)->f64.
struct KernelModule {
  ModuleBuilder builder;
  FunctionBuilder* f = nullptr;
  uint32_t n = 0;  // param local index
  uint32_t i, j, k, acc;

  KernelModule() {
    builder.AddMemory(kMemPages, kMemPages);
    f = &builder.AddFunction("run", {ValType::kI32}, {ValType::kF64});
    n = 0;
    i = f->AddLocal(ValType::kI32);
    j = f->AddLocal(ValType::kI32);
    k = f->AddLocal(ValType::kI32);
    acc = f->AddLocal(ValType::kF64);
  }

  // Pushes (idx_on_stack * 8 + base) — an f64 element address.
  void Addr8(uint32_t base) {
    f->I32Const(8);
    f->Emit(Op::kI32Mul);
    if (base != 0) {
      f->I32Const(static_cast<int32_t>(base));
      f->Emit(Op::kI32Add);
    }
  }

  // Pushes local a * n + local b (row-major index).
  void RowMajor(uint32_t a, uint32_t b) {
    f->LocalGet(a);
    f->LocalGet(n);
    f->Emit(Op::kI32Mul);
    f->LocalGet(b);
    f->Emit(Op::kI32Add);
  }

  // Pushes f64 value of M[a*n+b].
  void LoadMat(uint32_t base, uint32_t a, uint32_t b) {
    RowMajor(a, b);
    Addr8(base);
    f->Load(Op::kF64Load);
  }

  // Pushes f64 value of V[a].
  void LoadVec(uint32_t base, uint32_t a) {
    f->LocalGet(a);
    Addr8(base);
    f->Load(Op::kF64Load);
  }

  // Emits: init value = fmod(i*mul_a + j*mul_b + add, mod) / mod for matrix
  // entry; uses i32 arithmetic then converts (identical in the native twin).
  void PushInitValue(uint32_t a, uint32_t b, int32_t mul_b, int32_t add, int32_t mod) {
    f->LocalGet(a);
    if (b != UINT32_MAX) {
      f->LocalGet(b);
      f->I32Const(mul_b);
      f->Emit(Op::kI32Mul);
      f->Emit(Op::kI32Add);
    }
    f->I32Const(add);
    f->Emit(Op::kI32Add);
    f->I32Const(mod);
    f->Emit(Op::kI32RemS);
    f->Emit(Op::kF64ConvertI32S);
    f->I32Const(mod);
    f->Emit(Op::kF64ConvertI32S);
    f->Emit(Op::kF64Div);
  }

  // Initialises matrix at `base` with the standard pattern.
  void InitMatrix(uint32_t base, int32_t mul_b, int32_t add, int32_t mod) {
    f->ForLocalLimit(i, 0, n, [&] {
      f->ForLocalLimit(j, 0, n, [&] {
        RowMajor(i, j);
        Addr8(base);
        PushInitValue(i, j, mul_b, add, mod);
        f->Store(Op::kF64Store);
      });
    });
  }

  void InitVector(uint32_t base, int32_t add, int32_t mod) {
    f->ForLocalLimit(i, 0, n, [&] {
      f->LocalGet(i);
      Addr8(base);
      PushInitValue(i, UINT32_MAX, 0, add, mod);
      f->Store(Op::kF64Store);
    });
  }

  void ZeroVector(uint32_t base) {
    f->ForLocalLimit(i, 0, n, [&] {
      f->LocalGet(i);
      Addr8(base);
      f->F64Const(0.0);
      f->Store(Op::kF64Store);
    });
  }

  // Sum of vector at `base` into acc; leaves acc pushed as the result.
  void ChecksumVector(uint32_t base) {
    f->F64Const(0.0);
    f->LocalSet(acc);
    f->ForLocalLimit(i, 0, n, [&] {
      f->LocalGet(acc);
      LoadVec(base, i);
      f->Emit(Op::kF64Add);
      f->LocalSet(acc);
    });
    f->LocalGet(acc);
  }

  // Sum of matrix at `base`.
  void ChecksumMatrix(uint32_t base) {
    f->F64Const(0.0);
    f->LocalSet(acc);
    f->ForLocalLimit(i, 0, n, [&] {
      f->ForLocalLimit(j, 0, n, [&] {
        f->LocalGet(acc);
        LoadMat(base, i, j);
        f->Emit(Op::kF64Add);
        f->LocalSet(acc);
      });
    });
    f->LocalGet(acc);
  }

  Result<std::shared_ptr<const wasm::CompiledModule>> Finish() {
    f->End();
    FAASM_ASSIGN_OR_RETURN(wasm::Module module, wasm::DecodeModule(builder.Build()));
    return wasm::CompileModule(std::move(module));
  }
};

// Native-side init helpers mirroring PushInitValue exactly.
double InitVal(int64_t a, int64_t b, int64_t mul_b, int64_t add, int64_t mod) {
  const int64_t v = (a + b * mul_b + add) % mod;
  return static_cast<double>(static_cast<int32_t>(v)) / static_cast<double>(mod);
}

void NativeInitMatrix(std::vector<double>& m, uint32_t n, int32_t mul_b, int32_t add,
                      int32_t mod) {
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      m[static_cast<size_t>(a) * n + b] = InitVal(a, b, mul_b, add, mod);
    }
  }
}

void NativeInitVector(std::vector<double>& v, uint32_t n, int32_t add, int32_t mod) {
  for (uint32_t a = 0; a < n; ++a) {
    v[a] = InitVal(a, 0, 0, add, mod);
  }
}

// ---- gemm: C = A * B ---------------------------------------------------------

double GemmNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(static_cast<size_t>(n) * n);
  std::vector<double> c(static_cast<size_t>(n) * n, 0.0);
  NativeInitMatrix(a, n, 3, 1, 13);
  NativeInitMatrix(b, n, 5, 2, 17);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double acc = 0;
      for (uint32_t k = 0; k < n; ++k) {
        acc += a[static_cast<size_t>(i) * n + k] * b[static_cast<size_t>(k) * n + j];
      }
      c[static_cast<size_t>(i) * n + j] = acc;
    }
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      sum += c[static_cast<size_t>(i) * n + j];
    }
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> GemmWasm() {
  KernelModule m;
  auto& f = *m.f;
  m.InitMatrix(kAOff, 3, 1, 13);
  m.InitMatrix(kBOff, 5, 2, 17);
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      f.F64Const(0.0);
      f.LocalSet(m.acc);
      f.ForLocalLimit(m.k, 0, m.n, [&] {
        f.LocalGet(m.acc);
        m.LoadMat(kAOff, m.i, m.k);
        m.LoadMat(kBOff, m.k, m.j);
        f.Emit(Op::kF64Mul);
        f.Emit(Op::kF64Add);
        f.LocalSet(m.acc);
      });
      m.RowMajor(m.i, m.j);
      m.Addr8(kCOff);
      f.LocalGet(m.acc);
      f.Store(Op::kF64Store);
    });
  });
  m.ChecksumMatrix(kCOff);
  return m.Finish();
}

// ---- atax: y = A^T (A x) --------------------------------------------------------

double AtaxNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> x(n);
  std::vector<double> t(n);
  std::vector<double> y(n, 0.0);
  NativeInitMatrix(a, n, 7, 3, 19);
  NativeInitVector(x, n, 1, 11);
  for (uint32_t i = 0; i < n; ++i) {
    double acc = 0;
    for (uint32_t j = 0; j < n; ++j) {
      acc += a[static_cast<size_t>(i) * n + j] * x[j];
    }
    t[i] = acc;
  }
  for (uint32_t j = 0; j < n; ++j) {
    double acc = 0;
    for (uint32_t i = 0; i < n; ++i) {
      acc += a[static_cast<size_t>(i) * n + j] * t[i];
    }
    y[j] = acc;
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += y[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> AtaxWasm() {
  KernelModule m;
  auto& f = *m.f;
  m.InitMatrix(kAOff, 7, 3, 19);
  m.InitVector(kXOff, 1, 11);
  // t = A x
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.F64Const(0.0);
    f.LocalSet(m.acc);
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      f.LocalGet(m.acc);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kXOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.LocalSet(m.acc);
    });
    f.LocalGet(m.i);
    m.Addr8(kTOff);
    f.LocalGet(m.acc);
    f.Store(Op::kF64Store);
  });
  // y = A^T t   (outer loop over columns j)
  f.ForLocalLimit(m.j, 0, m.n, [&] {
    f.F64Const(0.0);
    f.LocalSet(m.acc);
    f.ForLocalLimit(m.i, 0, m.n, [&] {
      f.LocalGet(m.acc);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kTOff, m.i);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.LocalSet(m.acc);
    });
    f.LocalGet(m.j);
    m.Addr8(kYOff);
    f.LocalGet(m.acc);
    f.Store(Op::kF64Store);
  });
  m.ChecksumVector(kYOff);
  return m.Finish();
}

// ---- bicg: s = A^T r ; q = A p ---------------------------------------------------

double BicgNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> r(n);
  std::vector<double> p(n);
  std::vector<double> s(n, 0.0);
  std::vector<double> q(n, 0.0);
  NativeInitMatrix(a, n, 11, 5, 23);
  NativeInitVector(r, n, 2, 7);
  NativeInitVector(p, n, 4, 9);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      s[j] += a[static_cast<size_t>(i) * n + j] * r[i];
      q[i] += a[static_cast<size_t>(i) * n + j] * p[j];
    }
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    // (sum + s) + q, the wasm twin's order, so the checksums are bit-equal.
    sum += s[i];
    sum += q[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> BicgWasm() {
  KernelModule m;
  auto& f = *m.f;
  m.InitMatrix(kAOff, 11, 5, 23);
  m.InitVector(kXOff, 2, 7);  // r
  m.InitVector(kYOff, 4, 9);  // p
  m.ZeroVector(kTOff);        // s
  m.ZeroVector(kCOff);        // q (reusing matrix slot as a vector)
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      // s[j] += A[i][j] * r[i]
      f.LocalGet(m.j);
      m.Addr8(kTOff);
      m.LoadVec(kTOff, m.j);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kXOff, m.i);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.Store(Op::kF64Store);
      // q[i] += A[i][j] * p[j]
      f.LocalGet(m.i);
      m.Addr8(kCOff);
      m.LoadVec(kCOff, m.i);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kYOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.Store(Op::kF64Store);
    });
  });
  // checksum = sum(s) + sum(q)
  f.F64Const(0.0);
  f.LocalSet(m.acc);
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.LocalGet(m.acc);
    m.LoadVec(kTOff, m.i);
    f.Emit(Op::kF64Add);
    m.LoadVec(kCOff, m.i);
    f.Emit(Op::kF64Add);
    f.LocalSet(m.acc);
  });
  f.LocalGet(m.acc);
  return m.Finish();
}

// ---- mvt: x1 += A y1 ; x2 += A^T y2 -------------------------------------------------

double MvtNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y1(n);
  std::vector<double> y2(n);
  NativeInitMatrix(a, n, 13, 7, 29);
  NativeInitVector(x1, n, 3, 31);
  NativeInitVector(x2, n, 8, 37);
  NativeInitVector(y1, n, 5, 41);
  NativeInitVector(y2, n, 9, 43);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      x1[i] += a[static_cast<size_t>(i) * n + j] * y1[j];
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      x2[i] += a[static_cast<size_t>(j) * n + i] * y2[j];
    }
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    // (sum + x1) + x2, the wasm twin's order (see BicgNative).
    sum += x1[i];
    sum += x2[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> MvtWasm() {
  KernelModule m;
  auto& f = *m.f;
  m.InitMatrix(kAOff, 13, 7, 29);
  m.InitVector(kXOff, 3, 31);       // x1
  m.InitVector(kYOff, 8, 37);       // x2
  m.InitVector(kTOff, 5, 41);       // y1
  m.InitVector(kCOff, 9, 43);       // y2
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      f.LocalGet(m.i);
      m.Addr8(kXOff);
      m.LoadVec(kXOff, m.i);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kTOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.Store(Op::kF64Store);
    });
  });
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      f.LocalGet(m.i);
      m.Addr8(kYOff);
      m.LoadVec(kYOff, m.i);
      m.LoadMat(kAOff, m.j, m.i);
      m.LoadVec(kCOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.Store(Op::kF64Store);
    });
  });
  f.F64Const(0.0);
  f.LocalSet(m.acc);
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.LocalGet(m.acc);
    m.LoadVec(kXOff, m.i);
    f.Emit(Op::kF64Add);
    m.LoadVec(kYOff, m.i);
    f.Emit(Op::kF64Add);
    f.LocalSet(m.acc);
  });
  f.LocalGet(m.acc);
  return m.Finish();
}

// ---- gesummv: y = A x + B x ----------------------------------------------------------

double GesummvNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(static_cast<size_t>(n) * n);
  std::vector<double> x(n);
  std::vector<double> y(n);
  NativeInitMatrix(a, n, 17, 2, 31);
  NativeInitMatrix(b, n, 19, 4, 37);
  NativeInitVector(x, n, 6, 13);
  for (uint32_t i = 0; i < n; ++i) {
    double acc_a = 0;
    double acc_b = 0;
    for (uint32_t j = 0; j < n; ++j) {
      acc_a += a[static_cast<size_t>(i) * n + j] * x[j];
      acc_b += b[static_cast<size_t>(i) * n + j] * x[j];
    }
    y[i] = acc_a + acc_b;
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += y[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> GesummvWasm() {
  KernelModule m;
  auto& f = *m.f;
  const uint32_t acc_b = f.AddLocal(ValType::kF64);
  m.InitMatrix(kAOff, 17, 2, 31);
  m.InitMatrix(kBOff, 19, 4, 37);
  m.InitVector(kXOff, 6, 13);
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    f.F64Const(0.0);
    f.LocalSet(m.acc);
    f.F64Const(0.0);
    f.LocalSet(acc_b);
    f.ForLocalLimit(m.j, 0, m.n, [&] {
      f.LocalGet(m.acc);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kXOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.LocalSet(m.acc);
      f.LocalGet(acc_b);
      m.LoadMat(kBOff, m.i, m.j);
      m.LoadVec(kXOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Add);
      f.LocalSet(acc_b);
    });
    f.LocalGet(m.i);
    m.Addr8(kYOff);
    f.LocalGet(m.acc);
    f.LocalGet(acc_b);
    f.Emit(Op::kF64Add);
    f.Store(Op::kF64Store);
  });
  m.ChecksumVector(kYOff);
  return m.Finish();
}

// ---- jacobi-1d: t-step 3-point stencil -------------------------------------------------

double Jacobi1dNative(uint32_t n) {
  std::vector<double> a(n);
  std::vector<double> b(n);
  NativeInitVector(a, n, 2, 19);
  NativeInitVector(b, n, 3, 23);
  for (int t = 0; t < kStencilSteps; ++t) {
    for (uint32_t i = 1; i + 1 < n; ++i) {
      b[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
    }
    for (uint32_t i = 1; i + 1 < n; ++i) {
      a[i] = (b[i - 1] + b[i] + b[i + 1]) / 3.0;
    }
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += a[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> Jacobi1dWasm() {
  KernelModule m;
  auto& f = *m.f;
  const uint32_t limit = f.AddLocal(ValType::kI32);
  m.InitVector(kXOff, 2, 19);  // a
  m.InitVector(kYOff, 3, 23);  // b
  f.LocalGet(m.n);
  f.I32Const(1);
  f.Emit(Op::kI32Sub);
  f.LocalSet(limit);

  auto stencil = [&](uint32_t src, uint32_t dst) {
    f.ForLocalLimit(m.i, 1, limit, [&] {
      f.LocalGet(m.i);
      m.Addr8(dst);
      // (src[i-1] + src[i] + src[i+1]) / 3
      f.LocalGet(m.i);
      f.I32Const(1);
      f.Emit(Op::kI32Sub);
      m.Addr8(src);
      f.Load(Op::kF64Load);
      m.LoadVec(src, m.i);
      f.Emit(Op::kF64Add);
      f.LocalGet(m.i);
      f.I32Const(1);
      f.Emit(Op::kI32Add);
      m.Addr8(src);
      f.Load(Op::kF64Load);
      f.Emit(Op::kF64Add);
      f.F64Const(3.0);
      f.Emit(Op::kF64Div);
      f.Store(Op::kF64Store);
    });
  };

  f.ForConstLimit(m.k, 0, kStencilSteps, [&] {
    stencil(kXOff, kYOff);
    stencil(kYOff, kXOff);
  });
  m.ChecksumVector(kXOff);
  return m.Finish();
}

// ---- jacobi-2d: t-step 5-point stencil ---------------------------------------------------

double Jacobi2dNative(uint32_t n) {
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(static_cast<size_t>(n) * n);
  NativeInitMatrix(a, n, 3, 2, 11);
  NativeInitMatrix(b, n, 5, 1, 13);
  auto at = [n](std::vector<double>& m2, uint32_t r, uint32_t c) -> double& {
    return m2[static_cast<size_t>(r) * n + c];
  };
  for (int t = 0; t < kStencilSteps; ++t) {
    for (uint32_t i = 1; i + 1 < n; ++i) {
      for (uint32_t j = 1; j + 1 < n; ++j) {
        at(b, i, j) = 0.2 * (at(a, i, j) + at(a, i, j - 1) + at(a, i, j + 1) + at(a, i - 1, j) +
                             at(a, i + 1, j));
      }
    }
    for (uint32_t i = 1; i + 1 < n; ++i) {
      for (uint32_t j = 1; j + 1 < n; ++j) {
        at(a, i, j) = 0.2 * (at(b, i, j) + at(b, i, j - 1) + at(b, i, j + 1) + at(b, i - 1, j) +
                             at(b, i + 1, j));
      }
    }
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      sum += a[static_cast<size_t>(i) * n + j];
    }
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> Jacobi2dWasm() {
  KernelModule m;
  auto& f = *m.f;
  const uint32_t limit = f.AddLocal(ValType::kI32);
  m.InitMatrix(kAOff, 3, 2, 11);
  m.InitMatrix(kBOff, 5, 1, 13);
  f.LocalGet(m.n);
  f.I32Const(1);
  f.Emit(Op::kI32Sub);
  f.LocalSet(limit);

  // Pushes src[(i+di)*n + (j+dj)].
  auto load_neighbour = [&](uint32_t src, int32_t di, int32_t dj) {
    f.LocalGet(m.i);
    if (di != 0) {
      f.I32Const(di);
      f.Emit(Op::kI32Add);
    }
    f.LocalGet(m.n);
    f.Emit(Op::kI32Mul);
    f.LocalGet(m.j);
    f.Emit(Op::kI32Add);
    if (dj != 0) {
      f.I32Const(dj);
      f.Emit(Op::kI32Add);
    }
    m.Addr8(src);
    f.Load(Op::kF64Load);
  };

  auto stencil = [&](uint32_t src, uint32_t dst) {
    f.ForLocalLimit(m.i, 1, limit, [&] {
      f.ForLocalLimit(m.j, 1, limit, [&] {
        m.RowMajor(m.i, m.j);
        m.Addr8(dst);
        f.F64Const(0.2);
        load_neighbour(src, 0, 0);
        load_neighbour(src, 0, -1);
        f.Emit(Op::kF64Add);
        load_neighbour(src, 0, 1);
        f.Emit(Op::kF64Add);
        load_neighbour(src, -1, 0);
        f.Emit(Op::kF64Add);
        load_neighbour(src, 1, 0);
        f.Emit(Op::kF64Add);
        f.Emit(Op::kF64Mul);
        f.Store(Op::kF64Store);
      });
    });
  };

  f.ForConstLimit(m.k, 0, kStencilSteps, [&] {
    stencil(kAOff, kBOff);
    stencil(kBOff, kAOff);
  });
  m.ChecksumMatrix(kAOff);
  return m.Finish();
}

// ---- trisolv: lower-triangular solve L x = b -------------------------------------------------

double TrisolvNative(uint32_t n) {
  std::vector<double> l(static_cast<size_t>(n) * n);
  std::vector<double> b(n);
  std::vector<double> x(n);
  NativeInitMatrix(l, n, 7, 11, 53);
  NativeInitVector(b, n, 3, 17);
  for (uint32_t i = 0; i < n; ++i) {
    l[static_cast<size_t>(i) * n + i] += 2.0;  // keep well conditioned
  }
  for (uint32_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (uint32_t j = 0; j < i; ++j) {
      acc -= l[static_cast<size_t>(i) * n + j] * x[j];
    }
    x[i] = acc / l[static_cast<size_t>(i) * n + i];
  }
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

Result<std::shared_ptr<const wasm::CompiledModule>> TrisolvWasm() {
  KernelModule m;
  auto& f = *m.f;
  m.InitMatrix(kAOff, 7, 11, 53);
  m.InitVector(kXOff, 3, 17);  // b
  // L[i][i] += 2.0
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    m.RowMajor(m.i, m.i);
    m.Addr8(kAOff);
    m.LoadMat(kAOff, m.i, m.i);
    f.F64Const(2.0);
    f.Emit(Op::kF64Add);
    f.Store(Op::kF64Store);
  });
  f.ForLocalLimit(m.i, 0, m.n, [&] {
    // acc = b[i]
    m.LoadVec(kXOff, m.i);
    f.LocalSet(m.acc);
    f.ForLocalLimit(m.j, 0, m.i, [&] {
      f.LocalGet(m.acc);
      m.LoadMat(kAOff, m.i, m.j);
      m.LoadVec(kYOff, m.j);
      f.Emit(Op::kF64Mul);
      f.Emit(Op::kF64Sub);
      f.LocalSet(m.acc);
    });
    // x[i] = acc / L[i][i]
    f.LocalGet(m.i);
    m.Addr8(kYOff);
    f.LocalGet(m.acc);
    m.LoadMat(kAOff, m.i, m.i);
    f.Emit(Op::kF64Div);
    f.Store(Op::kF64Store);
  });
  m.ChecksumVector(kYOff);
  return m.Finish();
}

}  // namespace

const std::vector<Kernel>& PolybenchKernels() {
  static const std::vector<Kernel> kernels = {
      {"gemm", GemmNative, GemmWasm},
      {"atax", AtaxNative, AtaxWasm},
      {"bicg", BicgNative, BicgWasm},
      {"mvt", MvtNative, MvtWasm},
      {"gesummv", GesummvNative, GesummvWasm},
      {"jacobi-1d", Jacobi1dNative, Jacobi1dWasm},
      {"jacobi-2d", Jacobi2dNative, Jacobi2dWasm},
      {"trisolv", TrisolvNative, TrisolvWasm},
  };
  return kernels;
}

Result<double> RunKernelWasm(std::shared_ptr<const wasm::CompiledModule> module, uint32_t n) {
  FAASM_ASSIGN_OR_RETURN(auto instance, wasm::Instance::Create(std::move(module), nullptr));
  auto out = instance->CallExport("run", {wasm::MakeI32(n)});
  if (!out.ok()) {
    return out.status();
  }
  return out.value()[0].f64;
}

}  // namespace faasm
