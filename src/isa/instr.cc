#include "isa/instr.hh"

#include <array>
#include <cstdio>

namespace dejavuzz::isa {

namespace {

constexpr size_t kNumOps = static_cast<size_t>(Op::NumOps);

constexpr std::array<const char *, kNumOps> kMnemonics = {
    "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu",
    "bgeu", "lb", "lh", "lw", "ld", "lbu", "lhu", "lwu", "sb", "sh",
    "sw", "sd", "addi", "slti", "sltiu", "xori", "ori", "andi", "slli",
    "srli", "srai", "add", "sub", "sll", "slt", "sltu", "xor", "srl",
    "sra", "or", "and", "addiw", "slliw", "srliw", "sraiw", "addw",
    "subw", "sllw", "srlw", "sraw", "mul", "mulh", "mulhu", "div",
    "divu", "rem", "remu", "mulw", "divw", "remw", "fence", "fence.i",
    "ecall", "ebreak", "mret", "sret", "csrrw", "csrrs", "csrrc", "fld",
    "fsd", "fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fmv.x.d", "fmv.d.x",
    "swapnext", "illegal",
};

constexpr std::array<const char *, 32> kRegNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

constexpr std::array<const char *, 32> kFregNames = {
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
};

} // namespace

const char *
mnemonic(Op op)
{
    return kMnemonics[static_cast<size_t>(op)];
}

const char *
regName(unsigned index)
{
    return kRegNames[index & 31];
}

const char *
fregName(unsigned index)
{
    return kFregNames[index & 31];
}

std::string
disasm(const Instr &instr)
{
    char buf[96];
    const char *m = mnemonic(instr.op);
    const char *rd = fpRd(instr.op) ? fregName(instr.rd)
                                    : regName(instr.rd);
    const char *rs1 = fpRs1(instr.op) ? fregName(instr.rs1)
                                      : regName(instr.rs1);
    const char *rs2 = fpRs2(instr.op) ? fregName(instr.rs2)
                                      : regName(instr.rs2);
    long long imm = static_cast<long long>(instr.imm);

    switch (opClass(instr.op)) {
      case OpClass::Branch:
        std::snprintf(buf, sizeof(buf), "%s %s, %s, %lld", m, rs1, rs2,
                      imm);
        break;
      case OpClass::Load:
      case OpClass::FpLoad:
        std::snprintf(buf, sizeof(buf), "%s %s, %lld(%s)", m, rd, imm,
                      rs1);
        break;
      case OpClass::Store:
      case OpClass::FpStore:
        std::snprintf(buf, sizeof(buf), "%s %s, %lld(%s)", m, rs2, imm,
                      rs1);
        break;
      case OpClass::Jal:
        std::snprintf(buf, sizeof(buf), "%s %s, %lld", m, rd, imm);
        break;
      case OpClass::Jalr:
        std::snprintf(buf, sizeof(buf), "%s %s, %lld(%s)", m, rd, imm,
                      rs1);
        break;
      case OpClass::System:
        if (instr.op == Op::CSRRW || instr.op == Op::CSRRS ||
            instr.op == Op::CSRRC) {
            std::snprintf(buf, sizeof(buf), "%s %s, 0x%llx, %s", m, rd,
                          imm, rs1);
        } else {
            std::snprintf(buf, sizeof(buf), "%s", m);
        }
        break;
      case OpClass::Fence:
      case OpClass::Custom:
      case OpClass::IllegalOp:
        std::snprintf(buf, sizeof(buf), "%s", m);
        break;
      default:
        switch (instr.op) {
          case Op::LUI:
          case Op::AUIPC:
            std::snprintf(buf, sizeof(buf), "%s %s, 0x%llx", m, rd,
                          static_cast<unsigned long long>(instr.imm) &
                              0xfffff);
            break;
          case Op::ADDI: case Op::SLTI: case Op::SLTIU: case Op::XORI:
          case Op::ORI: case Op::ANDI: case Op::SLLI: case Op::SRLI:
          case Op::SRAI: case Op::ADDIW: case Op::SLLIW:
          case Op::SRLIW: case Op::SRAIW:
            std::snprintf(buf, sizeof(buf), "%s %s, %s, %lld", m, rd,
                          rs1, imm);
            break;
          default:
            std::snprintf(buf, sizeof(buf), "%s %s, %s, %s", m, rd, rs1,
                          rs2);
            break;
        }
        break;
    }
    return buf;
}

} // namespace dejavuzz::isa
