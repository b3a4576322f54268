// Function-body validator + preprocessor. Implements the type-checking
// algorithm from the WebAssembly spec appendix ("Validation Algorithm"),
// emitting preprocessed instructions as a side effect of validation so the
// two passes cannot disagree.
#include <algorithm>

#include "wasm/compiled.h"
#include "wasm/leb128.h"

namespace faasm::wasm {

namespace {

// Value-type lattice element: a concrete type or Unknown (from unreachable
// code, polymorphic).
struct VType {
  bool known = true;
  ValType type = ValType::kI32;

  static VType Unknown() { return VType{false, ValType::kI32}; }
  static VType Of(ValType t) { return VType{true, t}; }

  bool Matches(ValType expected) const { return !known || type == expected; }
};

struct PatchRef {
  uint32_t instr_index;
  int32_t table_entry;  // -1: patch code[instr_index].a; else br_tables entry
  uint32_t table_index;
};

struct CtrlFrame {
  Op opcode = Op::kBlock;
  BlockType type;
  uint32_t height = 0;  // operand stack height at frame entry
  bool unreachable = false;
  uint32_t loop_start_pc = 0;               // valid when opcode == kLoop
  int64_t else_jump_instr = -1;             // kJumpIfZero emitted at `if`
  std::vector<PatchRef> end_patches;        // forward refs to the frame's end
};

class FunctionCompiler {
 public:
  FunctionCompiler(const Module& module, uint32_t defined_index)
      : module_(module),
        defined_index_(defined_index),
        body_(module.bodies[defined_index]),
        cursor_(body_.code.data(), body_.code.size()) {}

  Result<CompiledFunction> Compile() {
    CompiledFunction out;
    out.type_index = module_.function_types[defined_index_];
    const FuncType& type = module_.types[out.type_index];
    out.param_count = static_cast<uint32_t>(type.params.size());
    out.result_arity = static_cast<uint32_t>(type.results.size());

    locals_.assign(type.params.begin(), type.params.end());
    for (const auto& [count, local_type] : body_.locals) {
      for (uint32_t i = 0; i < count; ++i) {
        locals_.push_back(local_type);
        out.locals.push_back(local_type);
      }
    }
    out.local_count = static_cast<uint32_t>(out.locals.size());

    // Function-level frame: results are the function results.
    BlockType function_block =
        type.results.empty() ? BlockType::Empty() : BlockType::Of(type.results[0]);
    PushCtrl(Op::kBlock, function_block, /*is_function_frame=*/true);

    while (!ctrl_.empty()) {
      if (cursor_.done()) {
        return InvalidArgument("function body ended without end opcode");
      }
      FAASM_RETURN_IF_ERROR(Step());
    }
    if (!cursor_.done()) {
      return InvalidArgument("trailing bytes after function end");
    }
    // The implicit return at the function's end.
    Emit(static_cast<uint16_t>(IOp::kReturnEnd), 0, out.result_arity, 0);

    out.code = std::move(code_);
    out.br_tables = std::move(br_tables_);
    out.max_operand_height = max_height_;
    return out;
  }

 private:
  // --- Operand stack ---------------------------------------------------------

  void PushVal(VType v) {
    vals_.push_back(v);
    max_height_ = std::max<uint32_t>(max_height_, static_cast<uint32_t>(vals_.size()));
  }
  void PushVal(ValType t) { PushVal(VType::Of(t)); }

  Result<VType> PopVal() {
    CtrlFrame& frame = ctrl_.back();
    if (vals_.size() == frame.height) {
      if (frame.unreachable) {
        return VType::Unknown();
      }
      return InvalidArgument("operand stack underflow");
    }
    VType v = vals_.back();
    vals_.pop_back();
    return v;
  }

  Status PopExpect(ValType expected) {
    FAASM_ASSIGN_OR_RETURN(VType v, PopVal());
    if (!v.Matches(expected)) {
      return InvalidArgument(std::string("type mismatch: expected ") + ValTypeName(expected));
    }
    return OkStatus();
  }

  // --- Control stack ---------------------------------------------------------

  void PushCtrl(Op opcode, BlockType type, bool is_function_frame = false) {
    CtrlFrame frame;
    frame.opcode = opcode;
    frame.type = type;
    frame.height = static_cast<uint32_t>(vals_.size());
    frame.loop_start_pc = Pc();
    (void)is_function_frame;
    ctrl_.push_back(std::move(frame));
  }

  // Label arity: loops branch to their start (no label values in MVP);
  // blocks/ifs branch to their end (result values).
  static uint32_t LabelArity(const CtrlFrame& frame) {
    if (frame.opcode == Op::kLoop) {
      return 0;
    }
    return static_cast<uint32_t>(frame.type.arity());
  }

  Status CheckLabelTypes(const CtrlFrame& frame) {
    // Pop label types then push them back (used by br_if / br_table checks).
    if (LabelArity(frame) == 1) {
      FAASM_RETURN_IF_ERROR(PopExpect(frame.type.result));
      PushVal(frame.type.result);
    }
    return OkStatus();
  }

  void SetUnreachable() {
    CtrlFrame& frame = ctrl_.back();
    vals_.resize(frame.height);
    frame.unreachable = true;
  }

  // --- Emission --------------------------------------------------------------

  uint32_t Pc() const { return static_cast<uint32_t>(code_.size()); }

  uint32_t Emit(uint16_t op, uint32_t a = 0, uint32_t b = 0, uint64_t imm = 0) {
    code_.push_back(Instr{op, a, b, imm});
    return static_cast<uint32_t>(code_.size() - 1);
  }

  // Emits a branch to the label `depth` levels up; records a patch if the
  // target pc is not yet known (block/if end).
  Status EmitBranch(uint16_t op, uint32_t depth) {
    if (depth >= ctrl_.size()) {
      return InvalidArgument("branch depth out of range");
    }
    CtrlFrame& frame = ctrl_[ctrl_.size() - 1 - depth];
    const uint32_t arity = LabelArity(frame);
    const uint32_t idx = Emit(op, 0, arity, frame.height);
    if (frame.opcode == Op::kLoop) {
      code_[idx].a = frame.loop_start_pc;
    } else {
      frame.end_patches.push_back(PatchRef{idx, -1, 0});
    }
    return OkStatus();
  }

  // --- Reading immediates ----------------------------------------------------

  Result<BlockType> ReadBlockType() {
    auto byte = cursor_.ReadByte();
    if (!byte.ok()) {
      return byte.status();
    }
    if (byte.value() == kBlockTypeEmpty) {
      return BlockType::Empty();
    }
    if (!IsValidValType(byte.value())) {
      return InvalidArgument("invalid block type");
    }
    return BlockType::Of(static_cast<ValType>(byte.value()));
  }

  Result<std::pair<uint32_t, uint64_t>> ReadMemArg(uint32_t natural_align_log2) {
    auto align = cursor_.ReadVarU32();
    if (!align.ok()) {
      return align.status();
    }
    if (align.value() > natural_align_log2) {
      return InvalidArgument("alignment exceeds natural alignment");
    }
    auto offset = cursor_.ReadVarU32();
    if (!offset.ok()) {
      return offset.status();
    }
    if (!module_.memory.has_value()) {
      return InvalidArgument("memory instruction without memory");
    }
    return std::make_pair(align.value(), static_cast<uint64_t>(offset.value()));
  }

  // --- Per-opcode step -------------------------------------------------------

  Status Step();
  Status StepNumeric(Op op);
  Status HandleLoadStore(Op op);

  const Module& module_;
  uint32_t defined_index_;
  const FunctionBody& body_;
  ByteCursor cursor_;

  std::vector<ValType> locals_;  // params + locals
  std::vector<VType> vals_;
  std::vector<CtrlFrame> ctrl_;
  std::vector<Instr> code_;
  std::vector<BrTableData> br_tables_;
  uint32_t max_height_ = 0;
};

Status FunctionCompiler::HandleLoadStore(Op op) {
  struct MemOpInfo {
    ValType type;
    uint32_t align_log2;
    bool is_store;
  };
  MemOpInfo info{};
  switch (op) {
    case Op::kI32Load: info = {ValType::kI32, 2, false}; break;
    case Op::kI64Load: info = {ValType::kI64, 3, false}; break;
    case Op::kF32Load: info = {ValType::kF32, 2, false}; break;
    case Op::kF64Load: info = {ValType::kF64, 3, false}; break;
    case Op::kI32Load8S:
    case Op::kI32Load8U: info = {ValType::kI32, 0, false}; break;
    case Op::kI32Load16S:
    case Op::kI32Load16U: info = {ValType::kI32, 1, false}; break;
    case Op::kI64Load8S:
    case Op::kI64Load8U: info = {ValType::kI64, 0, false}; break;
    case Op::kI64Load16S:
    case Op::kI64Load16U: info = {ValType::kI64, 1, false}; break;
    case Op::kI64Load32S:
    case Op::kI64Load32U: info = {ValType::kI64, 2, false}; break;
    case Op::kI32Store: info = {ValType::kI32, 2, true}; break;
    case Op::kI64Store: info = {ValType::kI64, 3, true}; break;
    case Op::kF32Store: info = {ValType::kF32, 2, true}; break;
    case Op::kF64Store: info = {ValType::kF64, 3, true}; break;
    case Op::kI32Store8: info = {ValType::kI32, 0, true}; break;
    case Op::kI32Store16: info = {ValType::kI32, 1, true}; break;
    case Op::kI64Store8: info = {ValType::kI64, 0, true}; break;
    case Op::kI64Store16: info = {ValType::kI64, 1, true}; break;
    case Op::kI64Store32: info = {ValType::kI64, 2, true}; break;
    default:
      return Internal("not a memory opcode");
  }
  FAASM_ASSIGN_OR_RETURN(auto memarg, ReadMemArg(info.align_log2));
  if (info.is_store) {
    FAASM_RETURN_IF_ERROR(PopExpect(info.type));
    FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
  } else {
    FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
    PushVal(info.type);
  }
  Emit(static_cast<uint16_t>(op), 0, 0, memarg.second);
  return OkStatus();
}

// Handles all value-typed numeric/comparison/conversion operators by their
// (inputs) -> output signatures; emits the opcode unchanged.
Status FunctionCompiler::StepNumeric(Op op) {
  const uint8_t code = static_cast<uint8_t>(op);
  ValType in1 = ValType::kI32;
  ValType in2 = ValType::kI32;
  int n_in = 0;
  ValType out = ValType::kI32;

  auto sig = [&](int n, ValType a, ValType b, ValType o) {
    n_in = n;
    in1 = a;
    in2 = b;
    out = o;
  };

  if (code == 0x45) {
    sig(1, ValType::kI32, in2, ValType::kI32);  // i32.eqz
  } else if (code >= 0x46 && code <= 0x4F) {
    sig(2, ValType::kI32, ValType::kI32, ValType::kI32);
  } else if (code == 0x50) {
    sig(1, ValType::kI64, in2, ValType::kI32);  // i64.eqz
  } else if (code >= 0x51 && code <= 0x5A) {
    sig(2, ValType::kI64, ValType::kI64, ValType::kI32);
  } else if (code >= 0x5B && code <= 0x60) {
    sig(2, ValType::kF32, ValType::kF32, ValType::kI32);
  } else if (code >= 0x61 && code <= 0x66) {
    sig(2, ValType::kF64, ValType::kF64, ValType::kI32);
  } else if (code >= 0x67 && code <= 0x69) {
    sig(1, ValType::kI32, in2, ValType::kI32);
  } else if (code >= 0x6A && code <= 0x78) {
    sig(2, ValType::kI32, ValType::kI32, ValType::kI32);
  } else if (code >= 0x79 && code <= 0x7B) {
    sig(1, ValType::kI64, in2, ValType::kI64);
  } else if (code >= 0x7C && code <= 0x8A) {
    sig(2, ValType::kI64, ValType::kI64, ValType::kI64);
  } else if (code >= 0x8B && code <= 0x91) {
    sig(1, ValType::kF32, in2, ValType::kF32);
  } else if (code >= 0x92 && code <= 0x98) {
    sig(2, ValType::kF32, ValType::kF32, ValType::kF32);
  } else if (code >= 0x99 && code <= 0x9F) {
    sig(1, ValType::kF64, in2, ValType::kF64);
  } else if (code >= 0xA0 && code <= 0xA6) {
    sig(2, ValType::kF64, ValType::kF64, ValType::kF64);
  } else {
    switch (op) {
      case Op::kI32WrapI64: sig(1, ValType::kI64, in2, ValType::kI32); break;
      case Op::kI32TruncF32S:
      case Op::kI32TruncF32U: sig(1, ValType::kF32, in2, ValType::kI32); break;
      case Op::kI32TruncF64S:
      case Op::kI32TruncF64U: sig(1, ValType::kF64, in2, ValType::kI32); break;
      case Op::kI64ExtendI32S:
      case Op::kI64ExtendI32U: sig(1, ValType::kI32, in2, ValType::kI64); break;
      case Op::kI64TruncF32S:
      case Op::kI64TruncF32U: sig(1, ValType::kF32, in2, ValType::kI64); break;
      case Op::kI64TruncF64S:
      case Op::kI64TruncF64U: sig(1, ValType::kF64, in2, ValType::kI64); break;
      case Op::kF32ConvertI32S:
      case Op::kF32ConvertI32U: sig(1, ValType::kI32, in2, ValType::kF32); break;
      case Op::kF32ConvertI64S:
      case Op::kF32ConvertI64U: sig(1, ValType::kI64, in2, ValType::kF32); break;
      case Op::kF32DemoteF64: sig(1, ValType::kF64, in2, ValType::kF32); break;
      case Op::kF64ConvertI32S:
      case Op::kF64ConvertI32U: sig(1, ValType::kI32, in2, ValType::kF64); break;
      case Op::kF64ConvertI64S:
      case Op::kF64ConvertI64U: sig(1, ValType::kI64, in2, ValType::kF64); break;
      case Op::kF64PromoteF32: sig(1, ValType::kF32, in2, ValType::kF64); break;
      case Op::kI32ReinterpretF32: sig(1, ValType::kF32, in2, ValType::kI32); break;
      case Op::kI64ReinterpretF64: sig(1, ValType::kF64, in2, ValType::kI64); break;
      case Op::kF32ReinterpretI32: sig(1, ValType::kI32, in2, ValType::kF32); break;
      case Op::kF64ReinterpretI64: sig(1, ValType::kI64, in2, ValType::kF64); break;
      case Op::kI32Extend8S:
      case Op::kI32Extend16S: sig(1, ValType::kI32, in2, ValType::kI32); break;
      case Op::kI64Extend8S:
      case Op::kI64Extend16S:
      case Op::kI64Extend32S: sig(1, ValType::kI64, in2, ValType::kI64); break;
      default:
        return InvalidArgument("unknown opcode");
    }
  }

  if (n_in == 2) {
    FAASM_RETURN_IF_ERROR(PopExpect(in2));
  }
  FAASM_RETURN_IF_ERROR(PopExpect(in1));
  PushVal(out);
  Emit(static_cast<uint16_t>(op));
  return OkStatus();
}

Status FunctionCompiler::Step() {
  auto op_byte = cursor_.ReadByte();
  if (!op_byte.ok()) {
    return op_byte.status();
  }
  const Op op = static_cast<Op>(op_byte.value());

  switch (op) {
    case Op::kUnreachable:
      Emit(static_cast<uint16_t>(op));
      SetUnreachable();
      return OkStatus();
    case Op::kNop:
      return OkStatus();

    case Op::kBlock: {
      FAASM_ASSIGN_OR_RETURN(BlockType type, ReadBlockType());
      PushCtrl(Op::kBlock, type);
      return OkStatus();
    }
    case Op::kLoop: {
      FAASM_ASSIGN_OR_RETURN(BlockType type, ReadBlockType());
      PushCtrl(Op::kLoop, type);
      return OkStatus();
    }
    case Op::kIf: {
      FAASM_ASSIGN_OR_RETURN(BlockType type, ReadBlockType());
      FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
      PushCtrl(Op::kIf, type);
      ctrl_.back().else_jump_instr = Emit(static_cast<uint16_t>(IOp::kJumpIfZero));
      return OkStatus();
    }
    case Op::kElse: {
      if (ctrl_.empty() || ctrl_.back().opcode != Op::kIf) {
        return InvalidArgument("else without if");
      }
      CtrlFrame& frame = ctrl_.back();
      if (frame.else_jump_instr < 0) {
        return InvalidArgument("duplicate else");
      }
      // Check the then-branch produced the results.
      if (frame.type.has_result) {
        FAASM_RETURN_IF_ERROR(PopExpect(frame.type.result));
      }
      if (vals_.size() != frame.height) {
        return InvalidArgument("then branch leaves extra values");
      }
      // Jump over the else branch to the end.
      const uint32_t jump = Emit(static_cast<uint16_t>(IOp::kJump));
      frame.end_patches.push_back(PatchRef{jump, -1, 0});
      // The false path of the `if` lands here.
      code_[frame.else_jump_instr].a = Pc();
      frame.else_jump_instr = -1;
      frame.unreachable = false;
      return OkStatus();
    }
    case Op::kEnd: {
      if (ctrl_.empty()) {
        return InvalidArgument("end without open frame");
      }
      CtrlFrame frame = std::move(ctrl_.back());
      // Check results.
      if (frame.type.has_result) {
        FAASM_RETURN_IF_ERROR(PopExpect(frame.type.result));
      }
      if (vals_.size() != frame.height) {
        return InvalidArgument("block leaves extra values on stack");
      }
      // `if` without `else` must have empty results.
      if (frame.opcode == Op::kIf && frame.else_jump_instr >= 0 && frame.type.has_result) {
        return InvalidArgument("if with result type requires else");
      }
      ctrl_.pop_back();
      // Patch forward references to this end.
      const uint32_t end_pc = Pc();
      if (frame.else_jump_instr >= 0) {
        code_[frame.else_jump_instr].a = end_pc;
      }
      for (const PatchRef& patch : frame.end_patches) {
        if (patch.table_entry < 0) {
          code_[patch.instr_index].a = end_pc;
        } else {
          br_tables_[patch.table_index].targets[patch.table_entry].pc = end_pc;
        }
      }
      // Push results for the enclosing frame.
      if (frame.type.has_result) {
        PushVal(frame.type.result);
      }
      return OkStatus();
    }

    case Op::kBr: {
      auto depth = cursor_.ReadVarU32();
      if (!depth.ok()) {
        return depth.status();
      }
      if (depth.value() >= ctrl_.size()) {
        return InvalidArgument("br depth out of range");
      }
      CtrlFrame& target = ctrl_[ctrl_.size() - 1 - depth.value()];
      if (LabelArity(target) == 1) {
        FAASM_RETURN_IF_ERROR(PopExpect(target.type.result));
      }
      FAASM_RETURN_IF_ERROR(EmitBranch(static_cast<uint16_t>(Op::kBr), depth.value()));
      SetUnreachable();
      return OkStatus();
    }
    case Op::kBrIf: {
      auto depth = cursor_.ReadVarU32();
      if (!depth.ok()) {
        return depth.status();
      }
      FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
      if (depth.value() >= ctrl_.size()) {
        return InvalidArgument("br_if depth out of range");
      }
      FAASM_RETURN_IF_ERROR(CheckLabelTypes(ctrl_[ctrl_.size() - 1 - depth.value()]));
      FAASM_RETURN_IF_ERROR(EmitBranch(static_cast<uint16_t>(Op::kBrIf), depth.value()));
      return OkStatus();
    }
    case Op::kBrTable: {
      auto count = cursor_.ReadVarU32();
      if (!count.ok()) {
        return count.status();
      }
      std::vector<uint32_t> depths(count.value());
      for (auto& d : depths) {
        auto depth = cursor_.ReadVarU32();
        if (!depth.ok()) {
          return depth.status();
        }
        d = depth.value();
      }
      auto default_depth = cursor_.ReadVarU32();
      if (!default_depth.ok()) {
        return default_depth.status();
      }
      depths.push_back(default_depth.value());

      FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));

      // All labels must have the same arity (and matching types).
      if (default_depth.value() >= ctrl_.size()) {
        return InvalidArgument("br_table default depth out of range");
      }
      const uint32_t arity = LabelArity(ctrl_[ctrl_.size() - 1 - default_depth.value()]);

      BrTableData table;
      table.arity = arity;
      const uint32_t table_index = static_cast<uint32_t>(br_tables_.size());
      br_tables_.push_back(std::move(table));

      for (uint32_t d : depths) {
        if (d >= ctrl_.size()) {
          return InvalidArgument("br_table depth out of range");
        }
        CtrlFrame& target = ctrl_[ctrl_.size() - 1 - d];
        if (LabelArity(target) != arity) {
          return InvalidArgument("br_table labels have mismatched arity");
        }
        FAASM_RETURN_IF_ERROR(CheckLabelTypes(target));
        BrTableTarget entry{0, target.height};
        const int32_t entry_index =
            static_cast<int32_t>(br_tables_[table_index].targets.size());
        br_tables_[table_index].targets.push_back(entry);
        if (target.opcode == Op::kLoop) {
          br_tables_[table_index].targets[entry_index].pc = target.loop_start_pc;
        } else {
          target.end_patches.push_back(PatchRef{0, entry_index, table_index});
        }
      }
      // Pop the label values (they travel with the branch).
      if (arity == 1) {
        FAASM_ASSIGN_OR_RETURN(VType v, PopVal());
        (void)v;
      }
      Emit(static_cast<uint16_t>(Op::kBrTable), table_index, arity);
      SetUnreachable();
      return OkStatus();
    }
    case Op::kReturn: {
      const FuncType& type = module_.types[module_.function_types[defined_index_]];
      if (!type.results.empty()) {
        FAASM_RETURN_IF_ERROR(PopExpect(type.results[0]));
      }
      Emit(static_cast<uint16_t>(Op::kReturn), 0, static_cast<uint32_t>(type.results.size()));
      SetUnreachable();
      return OkStatus();
    }

    case Op::kCall: {
      auto index = cursor_.ReadVarU32();
      if (!index.ok()) {
        return index.status();
      }
      if (index.value() >= module_.num_functions()) {
        return InvalidArgument("call to unknown function");
      }
      const FuncType& callee = module_.function_type(index.value());
      for (auto it = callee.params.rbegin(); it != callee.params.rend(); ++it) {
        FAASM_RETURN_IF_ERROR(PopExpect(*it));
      }
      for (ValType t : callee.results) {
        PushVal(t);
      }
      Emit(static_cast<uint16_t>(Op::kCall), index.value());
      return OkStatus();
    }
    case Op::kCallIndirect: {
      auto type_index = cursor_.ReadVarU32();
      if (!type_index.ok()) {
        return type_index.status();
      }
      auto reserved = cursor_.ReadByte();
      if (!reserved.ok()) {
        return reserved.status();
      }
      if (reserved.value() != 0) {
        return InvalidArgument("call_indirect reserved byte must be zero");
      }
      if (!module_.table.has_value()) {
        return InvalidArgument("call_indirect without table");
      }
      if (type_index.value() >= module_.types.size()) {
        return InvalidArgument("call_indirect unknown type");
      }
      const FuncType& callee = module_.types[type_index.value()];
      FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
      for (auto it = callee.params.rbegin(); it != callee.params.rend(); ++it) {
        FAASM_RETURN_IF_ERROR(PopExpect(*it));
      }
      for (ValType t : callee.results) {
        PushVal(t);
      }
      Emit(static_cast<uint16_t>(Op::kCallIndirect), type_index.value());
      return OkStatus();
    }

    case Op::kDrop: {
      FAASM_ASSIGN_OR_RETURN(VType v, PopVal());
      (void)v;
      Emit(static_cast<uint16_t>(op));
      return OkStatus();
    }
    case Op::kSelect: {
      FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
      FAASM_ASSIGN_OR_RETURN(VType v2, PopVal());
      FAASM_ASSIGN_OR_RETURN(VType v1, PopVal());
      if (v1.known && v2.known && v1.type != v2.type) {
        return InvalidArgument("select operands differ in type");
      }
      PushVal(v1.known ? v1 : v2);
      Emit(static_cast<uint16_t>(op));
      return OkStatus();
    }

    case Op::kLocalGet:
    case Op::kLocalSet:
    case Op::kLocalTee: {
      auto index = cursor_.ReadVarU32();
      if (!index.ok()) {
        return index.status();
      }
      if (index.value() >= locals_.size()) {
        return InvalidArgument("local index out of range");
      }
      const ValType t = locals_[index.value()];
      if (op == Op::kLocalGet) {
        PushVal(t);
      } else if (op == Op::kLocalSet) {
        FAASM_RETURN_IF_ERROR(PopExpect(t));
      } else {
        FAASM_RETURN_IF_ERROR(PopExpect(t));
        PushVal(t);
      }
      Emit(static_cast<uint16_t>(op), index.value());
      return OkStatus();
    }

    case Op::kGlobalGet:
    case Op::kGlobalSet: {
      auto index = cursor_.ReadVarU32();
      if (!index.ok()) {
        return index.status();
      }
      if (index.value() >= module_.globals.size()) {
        return InvalidArgument("global index out of range");
      }
      const GlobalDef& global = module_.globals[index.value()];
      if (op == Op::kGlobalGet) {
        PushVal(global.type);
      } else {
        if (!global.mutable_) {
          return InvalidArgument("global.set of immutable global");
        }
        FAASM_RETURN_IF_ERROR(PopExpect(global.type));
      }
      Emit(static_cast<uint16_t>(op), index.value());
      return OkStatus();
    }

    case Op::kMemorySize:
    case Op::kMemoryGrow: {
      auto reserved = cursor_.ReadByte();
      if (!reserved.ok()) {
        return reserved.status();
      }
      if (reserved.value() != 0) {
        return InvalidArgument("memory reserved byte must be zero");
      }
      if (!module_.memory.has_value()) {
        return InvalidArgument("memory instruction without memory");
      }
      if (op == Op::kMemoryGrow) {
        FAASM_RETURN_IF_ERROR(PopExpect(ValType::kI32));
      }
      PushVal(ValType::kI32);
      Emit(static_cast<uint16_t>(op));
      return OkStatus();
    }

    case Op::kI32Const: {
      auto v = cursor_.ReadVarS32();
      if (!v.ok()) {
        return v.status();
      }
      PushVal(ValType::kI32);
      Emit(static_cast<uint16_t>(op), 0, 0, static_cast<uint32_t>(v.value()));
      return OkStatus();
    }
    case Op::kI64Const: {
      auto v = cursor_.ReadVarS64();
      if (!v.ok()) {
        return v.status();
      }
      PushVal(ValType::kI64);
      Emit(static_cast<uint16_t>(op), 0, 0, static_cast<uint64_t>(v.value()));
      return OkStatus();
    }
    case Op::kF32Const: {
      uint32_t bits;
      FAASM_RETURN_IF_ERROR(cursor_.ReadRaw(&bits, 4));
      PushVal(ValType::kF32);
      Emit(static_cast<uint16_t>(op), 0, 0, bits);
      return OkStatus();
    }
    case Op::kF64Const: {
      uint64_t bits;
      FAASM_RETURN_IF_ERROR(cursor_.ReadRaw(&bits, 8));
      PushVal(ValType::kF64);
      Emit(static_cast<uint16_t>(op), 0, 0, bits);
      return OkStatus();
    }

    default:
      if (op >= Op::kI32Load && op <= Op::kI64Store32) {
        return HandleLoadStore(op);
      }
      return StepNumeric(op);
  }
}

// --- Superinstruction fusion --------------------------------------------------
//
// A peephole over the preprocessed Instr stream. Runs after branch targets
// are resolved: it computes the set of branch-target ("leader") pcs, greedily
// replaces runs of 2-4 instructions that do not span a leader with one fused
// opcode (opcodes.h kFuse*), and then remaps every branch target through the
// old-pc -> new-pc map. Operand-stack heights are unchanged — a fused
// sequence pushes and pops exactly what the original run did — so the unwind
// info baked into branches stays valid.

constexpr uint16_t U16(Op op) { return static_cast<uint16_t>(op); }
constexpr uint16_t U16(IOp op) { return static_cast<uint16_t>(op); }

bool IsLocalGet(const Instr& i) { return i.op == U16(Op::kLocalGet); }
bool IsI32Const(const Instr& i) { return i.op == U16(Op::kI32Const); }
bool IsAnyConst(const Instr& i) {
  return i.op >= U16(Op::kI32Const) && i.op <= U16(Op::kF64Const);
}
bool IsLoadOp(uint16_t op) { return op >= U16(Op::kI32Load) && op <= U16(Op::kI64Load32U); }
bool IsStoreOp(uint16_t op) { return op >= U16(Op::kI32Store) && op <= U16(Op::kI64Store32); }

// Numeric operators that pop two values and push one — the only shapes the
// push-two-then-redispatch superinstructions may target.
bool IsBinaryNumeric(uint16_t op) {
  return (op >= U16(Op::kI32Eq) && op <= U16(Op::kF64Ge)) ||       // comparisons (not eqz)
         (op >= U16(Op::kI32Add) && op <= U16(Op::kI32Rotr)) ||    // i32 arith
         (op >= U16(Op::kI64Add) && op <= U16(Op::kI64Rotr)) ||    // i64 arith
         (op >= U16(Op::kF32Add) && op <= U16(Op::kF32Copysign)) ||
         (op >= U16(Op::kF64Add) && op <= U16(Op::kF64Copysign));
}

// Eqz ops sit inside the comparison ranges; exclude them explicitly.
bool IsBinary(uint16_t op) {
  return IsBinaryNumeric(op) && op != U16(Op::kI64Eqz);
}

// Tries to fuse the run starting at `i`. Interior instructions must not be
// branch targets (is_target); the first instruction may be. On success,
// writes the fused instruction and returns the number of inputs consumed.
size_t TryFuse(const std::vector<Instr>& in, const std::vector<uint8_t>& is_target, size_t i,
               Instr* out) {
  const size_t n = in.size();
  const auto interior_clear = [&](size_t count) {
    for (size_t k = 1; k < count; ++k) {
      if (is_target[i + k] != 0) {
        return false;
      }
    }
    return true;
  };
  const Instr& a = in[i];
  const Instr* b = i + 1 < n ? &in[i + 1] : nullptr;
  const Instr* c = i + 2 < n ? &in[i + 2] : nullptr;
  const Instr* d = i + 3 < n ? &in[i + 3] : nullptr;
  const Instr* e = i + 4 < n ? &in[i + 4] : nullptr;
  const Instr* g = i + 5 < n ? &in[i + 5] : nullptr;

  // Row-major address idiom starting at `from`: get a; get n; mul; get b; add.
  const auto is_row_major = [&](size_t from) {
    return IsLocalGet(in[from]) && IsLocalGet(in[from + 1]) &&
           in[from + 2].op == U16(Op::kI32Mul) && IsLocalGet(in[from + 3]) &&
           in[from + 4].op == U16(Op::kI32Add);
  };

  if (g != nullptr && IsLocalGet(a) && interior_clear(6) && is_row_major(i + 1) &&
      a.a < 0x10000 && b->a < 0x10000 && c->a < 0x10000 && e->a < 0x10000) {
    // get x; get a; get n; mul; get b; add — operand push + row-major index.
    *out = Instr{U16(IOp::kFuseGetRowMajor), (a.a << 16) | b->a, (c->a << 16) | e->a, 0};
    return 6;
  }
  if (e != nullptr && interior_clear(5)) {
    if (is_row_major(i)) {
      *out = Instr{U16(IOp::kFuseRowMajor), a.a, b->a, d->a};
      return 5;
    }
    // Constant-stride index: get a; const n; mul; get b; add.
    if (IsLocalGet(a) && IsI32Const(*b) && c->op == U16(Op::kI32Mul) && IsLocalGet(*d) &&
        e->op == U16(Op::kI32Add)) {
      *out = Instr{U16(IOp::kFuseGetConstRowMajor), a.a, d->a, b->imm & 0xFFFFFFFFu};
      return 5;
    }
    // Scaled index plus base pointer feeding a load: const c; mul; get base;
    // add; <load>.
    if (IsI32Const(a) && b->op == U16(Op::kI32Mul) && IsLocalGet(*c) && c->a < 0x10000 &&
        d->op == U16(Op::kI32Add) && IsLoadOp(e->op)) {
      *out = Instr{U16(IOp::kFuseScaleAddLoad), static_cast<uint32_t>(a.imm),
                   (c->a << 16) | e->op, e->imm};
      return 5;
    }
  }
  if (d != nullptr && interior_clear(4)) {
    // Scaled local feeding a load: get a; const c; mul; <load>.
    if (IsLocalGet(a) && a.a < 0x10000 && IsI32Const(*b) && c->op == U16(Op::kI32Mul) &&
        IsLoadOp(d->op)) {
      *out = Instr{U16(IOp::kFuseGetScaleLoad), static_cast<uint32_t>(b->imm),
                   (a.a << 16) | d->op, d->imm};
      return 4;
    }
    // f32 accumulation tail: f32.mul; get acc; f32.add; set dst.
    if (a.op == U16(Op::kF32Mul) && IsLocalGet(*b) && c->op == U16(Op::kF32Add) &&
        d->op == U16(Op::kLocalSet)) {
      *out = Instr{U16(IOp::kFuseF32MulGetAddSet), b->a, d->a, 0};
      return 4;
    }
  }
  if (d != nullptr && IsLocalGet(a) && interior_clear(4)) {
    // Counted-loop exit test: get i; (get lim | const lim); ge_s; br_if(0).
    const bool ges_brif =
        c->op == U16(Op::kI32GeS) && d->op == U16(Op::kBrIf) && d->b == 0;
    if (ges_brif && IsLocalGet(*b) && a.a < 0x10000 && b->a < 0x10000) {
      *out = Instr{U16(IOp::kFuseLoopGeSLL), d->a, (a.a << 16) | b->a, d->imm};
      return 4;
    }
    if (ges_brif && IsI32Const(*b)) {
      *out = Instr{U16(IOp::kFuseLoopGeSLC), d->a, a.a,
                   (d->imm << 32) | (b->imm & 0xFFFFFFFFu)};
      return 4;
    }
    // Loop increment: get src; const step; add; set dst.
    if (IsI32Const(*b) && c->op == U16(Op::kI32Add) && d->op == U16(Op::kLocalSet)) {
      *out = Instr{U16(IOp::kFuseIncLocal), a.a, d->a, b->imm & 0xFFFFFFFFu};
      return 4;
    }
  }
  if (c != nullptr && IsLocalGet(a) && interior_clear(3)) {
    if (IsLocalGet(*b) && IsBinary(c->op)) {
      *out = Instr{U16(IOp::kFuseGetGetOp), a.a, b->a, c->op};
      return 3;
    }
    if (IsAnyConst(*b) && IsBinary(c->op)) {
      *out = Instr{U16(IOp::kFuseGetConstOp), a.a, c->op, b->imm};
      return 3;
    }
  }
  if (c != nullptr && interior_clear(3)) {
    // Index scaling feeding a load: const c; i32.mul; <load>. The handler
    // reproduces the multiply's 32-bit wrap, then redispatches to the load.
    if (IsI32Const(a) && b->op == U16(Op::kI32Mul) && IsLoadOp(c->op)) {
      *out = Instr{U16(IOp::kFuseScaleLoad), static_cast<uint32_t>(a.imm), c->op, c->imm};
      return 3;
    }
    // Dot-product accumulation tail: f64.mul; f64.add; local.set.
    if (a.op == U16(Op::kF64Mul) && b->op == U16(Op::kF64Add) &&
        c->op == U16(Op::kLocalSet)) {
      *out = Instr{U16(IOp::kFuseF64MulAddSet), c->a, 0, 0};
      return 3;
    }
  }
  if (b != nullptr && interior_clear(2)) {
    if (b->op == U16(Op::kBrIf)) {
      uint16_t fused = 0;
      switch (a.op) {
        case U16(Op::kI32GeS): fused = U16(IOp::kFuseGeSBrIf); break;
        case U16(Op::kI32LtS): fused = U16(IOp::kFuseLtSBrIf); break;
        case U16(Op::kI32Eqz): fused = U16(IOp::kFuseEqzBrIf); break;
        case U16(Op::kI32Eq): fused = U16(IOp::kFuseEqBrIf); break;
        case U16(Op::kI32Ne): fused = U16(IOp::kFuseNeBrIf); break;
        default: break;
      }
      if (fused != 0) {
        *out = Instr{fused, b->a, b->b, b->imm};
        return 2;
      }
    }
    if (IsLocalGet(a) && (IsLoadOp(b->op) || IsStoreOp(b->op))) {
      *out = Instr{U16(IOp::kFuseGetMem), a.a, b->op, b->imm};
      return 2;
    }
    if (IsI32Const(a) && IsLoadOp(b->op)) {
      // Fold the constant address into the offset; the handler pushes a zero
      // address operand. u64 arithmetic, so the checked tier still sees the
      // exact (possibly >2^32) effective address.
      *out = Instr{U16(IOp::kFuseConstLoad), 0, b->op, (a.imm & 0xFFFFFFFFu) + b->imm};
      return 2;
    }
    if (IsLocalGet(a) && IsLocalGet(*b)) {
      *out = Instr{U16(IOp::kFuseGetGet), a.a, b->a, 0};
      return 2;
    }
    // Generic operand-push prefixes: get/const feeding any binop. These are
    // the fallback when no longer pattern matched; together they cover most
    // address arithmetic (get n; mul / const 8; mul / const base; add).
    if (IsLocalGet(a) && IsBinary(b->op)) {
      *out = Instr{U16(IOp::kFuseGetOp), a.a, b->op, 0};
      return 2;
    }
    if (IsAnyConst(a) && IsBinary(b->op)) {
      *out = Instr{U16(IOp::kFuseConstOp), 0, b->op, a.imm};
      return 2;
    }
  }
  return 0;
}

void FuseFunction(CompiledFunction* fn) {
  const std::vector<Instr>& in = fn->code;
  if (in.empty()) {
    return;
  }

  // Leaders: every pc some branch can land on. Fusing across one would leave
  // a branch pointing into the middle of a superinstruction.
  std::vector<uint8_t> is_target(in.size() + 1, 0);
  for (const Instr& ins : in) {
    switch (ins.op) {
      case U16(IOp::kJump):
      case U16(IOp::kJumpIfZero):
      case U16(Op::kBr):
      case U16(Op::kBrIf):
        is_target[ins.a] = 1;
        break;
      default:
        break;
    }
  }
  for (const BrTableData& table : fn->br_tables) {
    for (const BrTableTarget& target : table.targets) {
      is_target[target.pc] = 1;
    }
  }

  std::vector<Instr> out;
  out.reserve(in.size());
  // pc_map[old_pc] -> new pc. Interior pcs of a fused run map to the fused
  // instruction (no branch targets them — leaders are never interior).
  std::vector<uint32_t> pc_map(in.size() + 1, 0);
  size_t i = 0;
  while (i < in.size()) {
    Instr fused;
    const size_t consumed = TryFuse(in, is_target, i, &fused);
    const auto new_pc = static_cast<uint32_t>(out.size());
    if (consumed > 0) {
      for (size_t k = 0; k < consumed; ++k) {
        pc_map[i + k] = new_pc;
      }
      out.push_back(fused);
      i += consumed;
    } else {
      pc_map[i] = new_pc;
      out.push_back(in[i]);
      ++i;
    }
  }
  pc_map[in.size()] = static_cast<uint32_t>(out.size());

  for (Instr& ins : out) {
    switch (ins.op) {
      case U16(IOp::kJump):
      case U16(IOp::kJumpIfZero):
      case U16(Op::kBr):
      case U16(Op::kBrIf):
      case U16(IOp::kFuseGeSBrIf):
      case U16(IOp::kFuseLtSBrIf):
      case U16(IOp::kFuseEqzBrIf):
      case U16(IOp::kFuseEqBrIf):
      case U16(IOp::kFuseNeBrIf):
      case U16(IOp::kFuseLoopGeSLL):
      case U16(IOp::kFuseLoopGeSLC):
        ins.a = pc_map[ins.a];
        break;
      default:
        break;
    }
  }
  for (BrTableData& table : fn->br_tables) {
    for (BrTableTarget& target : table.targets) {
      target.pc = pc_map[target.pc];
    }
  }
  fn->code = std::move(out);
}

void BuildRetiredPrefix(CompiledFunction* fn) {
  fn->retired_prefix.resize(fn->code.size() + 1);
  uint32_t sum = 0;
  for (size_t k = 0; k < fn->code.size(); ++k) {
    fn->retired_prefix[k] = sum;
    sum += InstrRetireWeight(fn->code[k].op);
  }
  fn->retired_prefix[fn->code.size()] = sum;
}

}  // namespace

uint32_t InstrRetireWeight(uint16_t op) {
  switch (static_cast<IOp>(op)) {
    case IOp::kFuseGetGet:
    case IOp::kFuseGetMem:
    case IOp::kFuseConstLoad:
    case IOp::kFuseGeSBrIf:
    case IOp::kFuseLtSBrIf:
    case IOp::kFuseEqzBrIf:
    case IOp::kFuseEqBrIf:
    case IOp::kFuseNeBrIf:
    case IOp::kFuseGetOp:
    case IOp::kFuseConstOp:
      return 2;
    case IOp::kFuseGetGetOp:
    case IOp::kFuseGetConstOp:
    case IOp::kFuseF64MulAddSet:
    case IOp::kFuseScaleLoad:
      return 3;
    case IOp::kFuseIncLocal:
    case IOp::kFuseLoopGeSLL:
    case IOp::kFuseLoopGeSLC:
    case IOp::kFuseGetScaleLoad:
    case IOp::kFuseF32MulGetAddSet:
      return 4;
    case IOp::kFuseRowMajor:
    case IOp::kFuseGetConstRowMajor:
    case IOp::kFuseScaleAddLoad:
      return 5;
    case IOp::kFuseGetRowMajor:
      return 6;
    default:
      return 1;
  }
}

Result<std::shared_ptr<const CompiledModule>> CompileModule(Module module,
                                                            const CompileOptions& options) {
  auto compiled = std::make_shared<CompiledModule>();
  compiled->functions.reserve(module.bodies.size());
  for (uint32_t i = 0; i < module.bodies.size(); ++i) {
    FunctionCompiler compiler(module, i);
    auto fn = compiler.Compile();
    if (!fn.ok()) {
      return Status(fn.status().code(), "function #" + std::to_string(i) + ": " +
                                            fn.status().message());
    }
    CompiledFunction compiled_fn = std::move(fn).value();
    if (options.fuse_superinstructions) {
      FuseFunction(&compiled_fn);
    }
    BuildRetiredPrefix(&compiled_fn);
    compiled->functions.push_back(std::move(compiled_fn));
  }
  compiled->module = std::move(module);
  return std::shared_ptr<const CompiledModule>(std::move(compiled));
}

}  // namespace faasm::wasm
