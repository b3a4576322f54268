// WebAssembly opcode bytes (spec §5.4), MVP plus sign-extension operators.
#ifndef FAASM_WASM_OPCODES_H_
#define FAASM_WASM_OPCODES_H_

#include <cstdint>

namespace faasm::wasm {

enum class Op : uint8_t {
  kUnreachable = 0x00,
  kNop = 0x01,
  kBlock = 0x02,
  kLoop = 0x03,
  kIf = 0x04,
  kElse = 0x05,
  kEnd = 0x0B,
  kBr = 0x0C,
  kBrIf = 0x0D,
  kBrTable = 0x0E,
  kReturn = 0x0F,
  kCall = 0x10,
  kCallIndirect = 0x11,

  kDrop = 0x1A,
  kSelect = 0x1B,

  kLocalGet = 0x20,
  kLocalSet = 0x21,
  kLocalTee = 0x22,
  kGlobalGet = 0x23,
  kGlobalSet = 0x24,

  kI32Load = 0x28,
  kI64Load = 0x29,
  kF32Load = 0x2A,
  kF64Load = 0x2B,
  kI32Load8S = 0x2C,
  kI32Load8U = 0x2D,
  kI32Load16S = 0x2E,
  kI32Load16U = 0x2F,
  kI64Load8S = 0x30,
  kI64Load8U = 0x31,
  kI64Load16S = 0x32,
  kI64Load16U = 0x33,
  kI64Load32S = 0x34,
  kI64Load32U = 0x35,
  kI32Store = 0x36,
  kI64Store = 0x37,
  kF32Store = 0x38,
  kF64Store = 0x39,
  kI32Store8 = 0x3A,
  kI32Store16 = 0x3B,
  kI64Store8 = 0x3C,
  kI64Store16 = 0x3D,
  kI64Store32 = 0x3E,
  kMemorySize = 0x3F,
  kMemoryGrow = 0x40,

  kI32Const = 0x41,
  kI64Const = 0x42,
  kF32Const = 0x43,
  kF64Const = 0x44,

  kI32Eqz = 0x45,
  kI32Eq = 0x46,
  kI32Ne = 0x47,
  kI32LtS = 0x48,
  kI32LtU = 0x49,
  kI32GtS = 0x4A,
  kI32GtU = 0x4B,
  kI32LeS = 0x4C,
  kI32LeU = 0x4D,
  kI32GeS = 0x4E,
  kI32GeU = 0x4F,

  kI64Eqz = 0x50,
  kI64Eq = 0x51,
  kI64Ne = 0x52,
  kI64LtS = 0x53,
  kI64LtU = 0x54,
  kI64GtS = 0x55,
  kI64GtU = 0x56,
  kI64LeS = 0x57,
  kI64LeU = 0x58,
  kI64GeS = 0x59,
  kI64GeU = 0x5A,

  kF32Eq = 0x5B,
  kF32Ne = 0x5C,
  kF32Lt = 0x5D,
  kF32Gt = 0x5E,
  kF32Le = 0x5F,
  kF32Ge = 0x60,

  kF64Eq = 0x61,
  kF64Ne = 0x62,
  kF64Lt = 0x63,
  kF64Gt = 0x64,
  kF64Le = 0x65,
  kF64Ge = 0x66,

  kI32Clz = 0x67,
  kI32Ctz = 0x68,
  kI32Popcnt = 0x69,
  kI32Add = 0x6A,
  kI32Sub = 0x6B,
  kI32Mul = 0x6C,
  kI32DivS = 0x6D,
  kI32DivU = 0x6E,
  kI32RemS = 0x6F,
  kI32RemU = 0x70,
  kI32And = 0x71,
  kI32Or = 0x72,
  kI32Xor = 0x73,
  kI32Shl = 0x74,
  kI32ShrS = 0x75,
  kI32ShrU = 0x76,
  kI32Rotl = 0x77,
  kI32Rotr = 0x78,

  kI64Clz = 0x79,
  kI64Ctz = 0x7A,
  kI64Popcnt = 0x7B,
  kI64Add = 0x7C,
  kI64Sub = 0x7D,
  kI64Mul = 0x7E,
  kI64DivS = 0x7F,
  kI64DivU = 0x80,
  kI64RemS = 0x81,
  kI64RemU = 0x82,
  kI64And = 0x83,
  kI64Or = 0x84,
  kI64Xor = 0x85,
  kI64Shl = 0x86,
  kI64ShrS = 0x87,
  kI64ShrU = 0x88,
  kI64Rotl = 0x89,
  kI64Rotr = 0x8A,

  kF32Abs = 0x8B,
  kF32Neg = 0x8C,
  kF32Ceil = 0x8D,
  kF32Floor = 0x8E,
  kF32Trunc = 0x8F,
  kF32Nearest = 0x90,
  kF32Sqrt = 0x91,
  kF32Add = 0x92,
  kF32Sub = 0x93,
  kF32Mul = 0x94,
  kF32Div = 0x95,
  kF32Min = 0x96,
  kF32Max = 0x97,
  kF32Copysign = 0x98,

  kF64Abs = 0x99,
  kF64Neg = 0x9A,
  kF64Ceil = 0x9B,
  kF64Floor = 0x9C,
  kF64Trunc = 0x9D,
  kF64Nearest = 0x9E,
  kF64Sqrt = 0x9F,
  kF64Add = 0xA0,
  kF64Sub = 0xA1,
  kF64Mul = 0xA2,
  kF64Div = 0xA3,
  kF64Min = 0xA4,
  kF64Max = 0xA5,
  kF64Copysign = 0xA6,

  kI32WrapI64 = 0xA7,
  kI32TruncF32S = 0xA8,
  kI32TruncF32U = 0xA9,
  kI32TruncF64S = 0xAA,
  kI32TruncF64U = 0xAB,
  kI64ExtendI32S = 0xAC,
  kI64ExtendI32U = 0xAD,
  kI64TruncF32S = 0xAE,
  kI64TruncF32U = 0xAF,
  kI64TruncF64S = 0xB0,
  kI64TruncF64U = 0xB1,
  kF32ConvertI32S = 0xB2,
  kF32ConvertI32U = 0xB3,
  kF32ConvertI64S = 0xB4,
  kF32ConvertI64U = 0xB5,
  kF32DemoteF64 = 0xB6,
  kF64ConvertI32S = 0xB7,
  kF64ConvertI32U = 0xB8,
  kF64ConvertI64S = 0xB9,
  kF64ConvertI64U = 0xBA,
  kF64PromoteF32 = 0xBB,
  kI32ReinterpretF32 = 0xBC,
  kI64ReinterpretF64 = 0xBD,
  kF32ReinterpretI32 = 0xBE,
  kF64ReinterpretI64 = 0xBF,

  kI32Extend8S = 0xC0,
  kI32Extend16S = 0xC1,
  kI64Extend8S = 0xC2,
  kI64Extend16S = 0xC3,
  kI64Extend32S = 0xC4,
};

// Internal (non-encodable) opcodes used only in preprocessed code.
enum class IOp : uint16_t {
  // 0x00-0xFF mirror the wire opcodes above.
  kJump = 0x100,       // unconditional jump, no stack unwind (if/else plumbing)
  kJumpIfZero = 0x101, // conditional forward jump, no stack unwind
  kReturnEnd = 0x102,  // implicit return at the end of the function body

  // --- Superinstructions (0x110+) -------------------------------------------
  //
  // Emitted by the peephole fusion pass in compiler.cc (CompileOptions::
  // fuse_superinstructions). Each replaces a run of 2-4 wire instructions;
  // InstrRetireWeight (compiled.h) maps it back to that count so the
  // instructions_retired counter is invariant under fusion. Fusion never
  // crosses a branch-target boundary, so these only appear inside straight-
  // line code. Several are "prefix" superinstructions: they push operands and
  // then re-dispatch to the opcode carried in a field, reusing the plain
  // handler for the tail instruction.

  // local.get a; local.get b
  kFuseGetGet = 0x110,
  // local.get a; local.get b; <binop> — imm = the binop opcode (redispatch)
  kFuseGetGetOp = 0x111,
  // local.get a; <const>; <binop> — b = the binop opcode, imm = const bits
  kFuseGetConstOp = 0x112,
  // local.get a; <load/store> — b = the memory opcode, imm = its offset
  kFuseGetMem = 0x113,
  // i32.const; <load> — b = the load opcode, imm = folded const+offset
  // address (the handler sees a zero address operand)
  kFuseConstLoad = 0x114,
  // local.get a; i32.const imm; i32.add; local.set b  (loop increment)
  kFuseIncLocal = 0x115,
  // <i32 compare>; br_if — a = target pc, b = arity, imm = unwind height
  kFuseGeSBrIf = 0x116,
  kFuseLtSBrIf = 0x117,
  kFuseEqzBrIf = 0x118,
  kFuseEqBrIf = 0x119,
  kFuseNeBrIf = 0x11A,
  // Counted-loop exit test, arity 0 (builder.cc For* skeleton):
  // local.get l1; local.get l2; i32.ge_s; br_if — b = (l1 << 16) | l2
  kFuseLoopGeSLL = 0x11B,
  // local.get l; i32.const c; i32.ge_s; br_if — b = l,
  // imm = (height << 32) | (uint32_t)c
  kFuseLoopGeSLC = 0x11C,
  // local.get a; <binop> — b = the binop opcode (redispatch)
  kFuseGetOp = 0x11D,
  // <const>; <binop> — b = the binop opcode, imm = const bits (redispatch)
  kFuseConstOp = 0x11E,
  // f64.mul; f64.add; local.set a — the dot-product accumulation tail.
  // Evaluated as two separately-rounded operations, never contracted to an
  // fma, so results stay bit-identical to the unfused tier.
  kFuseF64MulAddSet = 0x11F,
  // local.get a; local.get n; i32.mul; local.get b; i32.add — the row-major
  // index idiom (a*n+b, both ops wrapping mod 2^32). a = l_a, b = l_n,
  // imm = l_b.
  kFuseRowMajor = 0x120,
  // local.get x; <row-major a,n,b> — the same with a leading operand push
  // (e.g. the accumulator before an indexed load). All four locals must be
  // < 0x10000: a = (l_x << 16) | l_a, b = (l_n << 16) | l_b.
  kFuseGetRowMajor = 0x121,
  // i32.const c; i32.mul; <load> — index scaling folded into the address
  // operand: pushes (u32)(idx * c), then redispatches to the load in b with
  // imm = the load's offset. The 32-bit wrap of the multiply is preserved.
  kFuseScaleLoad = 0x122,

  // --- f32 MLP inner product (workloads/inference.cc BuildMlpWasmModule) ----
  //
  // The serve loop's multiply-accumulate is 27 wire instructions; the four
  // ops below plus the loop exit test, increment and br dispatch it as 7
  // preprocessed instructions (13 with only the fusions above). Locals packed
  // into a 16-bit field must be < 0x10000.

  // local.get a; i32.const c; i32.mul; <load> — a = c,
  // b = (l_a << 16) | the load opcode, imm = its offset. f32.load runs
  // inline; any other load redispatches to its plain handler.
  kFuseGetScaleLoad = 0x123,
  // local.get a; i32.const n; i32.mul; local.get b; i32.add — the
  // constant-stride twin of kFuseRowMajor (a*n+b mod 2^32). a = l_a,
  // b = l_b, imm = n.
  kFuseGetConstRowMajor = 0x124,
  // i32.const c; i32.mul; local.get base; i32.add; <load> — scale the index
  // on top of the stack and add a base pointer, both wrapping mod 2^32
  // before the load's 33-bit effective-address add. a = c,
  // b = (l_base << 16) | the load opcode, imm = its offset (f32.load inline,
  // as in kFuseGetScaleLoad).
  kFuseScaleAddLoad = 0x125,
  // f32.mul; local.get a; f32.add; local.set b — the f32 accumulation tail,
  // (x * y) + l_a in wire operand order. Two separately-rounded steps,
  // never an fma, like kFuseF64MulAddSet.
  kFuseF32MulGetAddSet = 0x126,
};

// Upper bound on preprocessed opcode values; sizes the threaded-dispatch
// jump table in the interpreter.
inline constexpr size_t kInterpOpLimit = 0x130;

}  // namespace faasm::wasm

#endif  // FAASM_WASM_OPCODES_H_
