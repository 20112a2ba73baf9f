#include "sial/bytecode.hpp"

namespace sia::sial {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kHalt: return "halt";
    case Opcode::kNop: return "nop";
    case Opcode::kPardoStart: return "pardo_start";
    case Opcode::kPardoEnd: return "pardo_end";
    case Opcode::kDoStart: return "do_start";
    case Opcode::kDoEnd: return "do_end";
    case Opcode::kJump: return "jump";
    case Opcode::kJumpIfFalse: return "jump_if_false";
    case Opcode::kCall: return "call";
    case Opcode::kReturn: return "return";
    case Opcode::kExitLoop: return "exit_loop";
    case Opcode::kPushNumber: return "push_number";
    case Opcode::kPushScalar: return "push_scalar";
    case Opcode::kPushIndex: return "push_index";
    case Opcode::kPushConst: return "push_const";
    case Opcode::kNeg: return "neg";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kSqrt: return "sqrt";
    case Opcode::kAbs: return "abs";
    case Opcode::kExpFn: return "exp";
    case Opcode::kCompare: return "compare";
    case Opcode::kStoreScalar: return "store_scalar";
    case Opcode::kBlockDot: return "block_dot";
    case Opcode::kPrintTop: return "print_top";
    case Opcode::kPrintString: return "print_string";
    case Opcode::kBlockScalarOp: return "block_scalar_op";
    case Opcode::kBlockCopy: return "block_copy";
    case Opcode::kBlockBinary: return "block_binary";
    case Opcode::kBlockScaledCopy: return "block_scaled_copy";
    case Opcode::kGet: return "get";
    case Opcode::kRequest: return "request";
    case Opcode::kPut: return "put";
    case Opcode::kPrepare: return "prepare";
    case Opcode::kAllocate: return "allocate";
    case Opcode::kDeallocate: return "deallocate";
    case Opcode::kCreate: return "create";
    case Opcode::kDeleteArr: return "delete_array";
    case Opcode::kExecute: return "execute";
    case Opcode::kSipBarrier: return "sip_barrier";
    case Opcode::kServerBarrier: return "server_barrier";
    case Opcode::kCollective: return "collective";
    case Opcode::kCheckpoint: return "checkpoint";
    case Opcode::kRestoreArr: return "restore";
  }
  return "?";
}

std::string BlockOperand::to_string() const {
  std::string out = "a" + std::to_string(array_id) + "(";
  for (int d = 0; d < rank; ++d) {
    if (d > 0) out += ",";
    const int id = index_ids[static_cast<std::size_t>(d)];
    out += id == kWildcardIndex ? "*" : "i" + std::to_string(id);
  }
  return out + ")";
}

namespace {
template <typename T>
int find_by_name(const std::vector<T>& table, const std::string& name) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == name) return static_cast<int>(i);
  }
  return -1;
}
}  // namespace

int CompiledProgram::index_id(const std::string& name) const {
  return find_by_name(indices, name);
}

int CompiledProgram::array_id(const std::string& name) const {
  return find_by_name(arrays, name);
}

int CompiledProgram::scalar_id(const std::string& name) const {
  return find_by_name(scalars, name);
}

}  // namespace sia::sial
