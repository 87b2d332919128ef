#include "sw/isa.h"

#include <sstream>

#include "base/table.h"

namespace mhs::sw {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop:    return "nop";
    case Opcode::kHalt:   return "halt";
    case Opcode::kLi:     return "li";
    case Opcode::kAdd:    return "add";
    case Opcode::kSub:    return "sub";
    case Opcode::kMul:    return "mul";
    case Opcode::kDiv:    return "div";
    case Opcode::kShl:    return "shl";
    case Opcode::kShr:    return "shr";
    case Opcode::kAnd:    return "and";
    case Opcode::kOr:     return "or";
    case Opcode::kXor:    return "xor";
    case Opcode::kSlt:    return "slt";
    case Opcode::kSeq:    return "seq";
    case Opcode::kAddi:   return "addi";
    case Opcode::kCmovnz: return "cmovnz";
    case Opcode::kLd:     return "ld";
    case Opcode::kSt:     return "st";
    case Opcode::kBeq:    return "beq";
    case Opcode::kBne:    return "bne";
    case Opcode::kJmp:    return "jmp";
    case Opcode::kIret:   return "iret";
  }
  return "?";
}

std::string disassemble(const Instr& i) {
  std::ostringstream os;
  os << opcode_name(i.op);
  auto r = [](std::uint8_t n) { return concat("x", std::to_string(n)); };
  switch (i.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kIret:
      break;
    case Opcode::kLi:
      os << ' ' << r(i.rd) << ", " << i.imm;
      break;
    case Opcode::kAddi:
      os << ' ' << r(i.rd) << ", " << r(i.rs1) << ", " << i.imm;
      break;
    case Opcode::kLd:
      os << ' ' << r(i.rd) << ", " << i.imm << '(' << r(i.rs1) << ')';
      break;
    case Opcode::kSt:
      os << ' ' << r(i.rs2) << ", " << i.imm << '(' << r(i.rs1) << ')';
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
      os << ' ' << r(i.rs1) << ", " << r(i.rs2) << ", @" << i.imm;
      break;
    case Opcode::kJmp:
      os << " @" << i.imm;
      break;
    case Opcode::kCmovnz:
      os << ' ' << r(i.rd) << ", " << r(i.rs1) << ", " << r(i.rs2);
      break;
    default:
      os << ' ' << r(i.rd) << ", " << r(i.rs1) << ", " << r(i.rs2);
      break;
  }
  return os.str();
}

std::string disassemble(const std::vector<Instr>& program) {
  std::ostringstream os;
  for (std::size_t i = 0; i < program.size(); ++i) {
    os << i << ":\t" << disassemble(program[i]) << '\n';
  }
  return os.str();
}

std::size_t encoded_size(const Instr& instr) {
  if (instr.op == Opcode::kLi &&
      (instr.imm < -2048 || instr.imm > 2047)) {
    // Wide immediates come from a constant pool: instruction + 8-byte slot.
    return 12;
  }
  return 4;
}

std::size_t encoded_size(const std::vector<Instr>& program) {
  std::size_t total = 0;
  for (const Instr& i : program) total += encoded_size(i);
  return total;
}

}  // namespace mhs::sw
