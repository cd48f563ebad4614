/**
 * @file
 * Instruction representation for the RV64 subset used as the fuzzing
 * stimulus language.
 *
 * The subset covers RV64I, the M extension, a slice of D (enough for
 * FPU-port-contention experiments), Zicsr/Zifencei slices, privileged
 * returns, and one custom-0 instruction (SWAPNEXT) that the swapMem
 * runtime uses as the sequence-complete hook (the paper triggers an
 * exception and lets the DPI-C trap handler swap; our harness hook is
 * the equivalent, see src/swapmem/).
 */

#ifndef DEJAVUZZ_ISA_INSTR_HH
#define DEJAVUZZ_ISA_INSTR_HH

#include <cstdint>
#include <string>

namespace dejavuzz::isa {

/** Operation identifiers for the supported subset. */
enum class Op : uint8_t {
    // RV64I upper/immediate and control transfer
    LUI, AUIPC, JAL, JALR,
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // Loads/stores
    LB, LH, LW, LD, LBU, LHU, LWU,
    SB, SH, SW, SD,
    // Integer immediate
    ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
    // Integer register
    ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
    // RV64-only word forms
    ADDIW, SLLIW, SRLIW, SRAIW, ADDW, SUBW, SLLW, SRLW, SRAW,
    // M extension
    MUL, MULH, MULHU, DIV, DIVU, REM, REMU, MULW, DIVW, REMW,
    // Fences and system
    FENCE, FENCE_I, ECALL, EBREAK, MRET, SRET,
    CSRRW, CSRRS, CSRRC,
    // D-extension slice (for FPU port contention stimuli)
    FLD, FSD, FADD_D, FSUB_D, FMUL_D, FDIV_D, FMV_X_D, FMV_D_X,
    // Custom-0: sequence-complete hook for the swapMem runtime
    SWAPNEXT,
    // Decode failure marker; raises an illegal-instruction exception
    ILLEGAL,
    NumOps,
};

/** Coarse functional class; drives both the golden model and the DUT. */
enum class OpClass : uint8_t {
    IntAlu,     ///< single-cycle integer op
    MulDiv,     ///< multi-cycle integer multiply/divide
    Load,
    Store,
    Branch,     ///< conditional branch
    Jal,        ///< direct jump (call when rd=ra)
    Jalr,       ///< indirect jump / call / return
    FpAlu,      ///< pipelined FP op
    FpDiv,      ///< long-latency unpipelined FP divide
    FpLoad,
    FpStore,
    FpMove,
    Fence,
    System,     ///< ecall/ebreak/mret/sret/csr
    Custom,     ///< SWAPNEXT
    IllegalOp,
};

/** Decoded (or generator-produced) instruction. */
struct Instr
{
    Op op = Op::ILLEGAL;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int64_t imm = 0;     ///< sign-extended immediate / CSR number
    uint32_t raw = 0;    ///< original encoding when decoded from memory

    bool operator==(const Instr &other) const
    {
        return op == other.op && rd == other.rd && rs1 == other.rs1 &&
               rs2 == other.rs2 && imm == other.imm;
    }
};

/** Mnemonic string ("addi", "fdiv.d", ...). */
const char *mnemonic(Op op);

/** Functional class of an operation. */
constexpr OpClass
opClass(Op op)
{
    switch (op) {
      case Op::JAL:
        return OpClass::Jal;
      case Op::JALR:
        return OpClass::Jalr;
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
        return OpClass::Branch;
      case Op::LB: case Op::LH: case Op::LW: case Op::LD: case Op::LBU:
      case Op::LHU: case Op::LWU:
        return OpClass::Load;
      case Op::SB: case Op::SH: case Op::SW: case Op::SD:
        return OpClass::Store;
      case Op::MUL: case Op::MULH: case Op::MULHU: case Op::DIV:
      case Op::DIVU: case Op::REM: case Op::REMU: case Op::MULW:
      case Op::DIVW: case Op::REMW:
        return OpClass::MulDiv;
      case Op::FENCE: case Op::FENCE_I:
        return OpClass::Fence;
      case Op::ECALL: case Op::EBREAK: case Op::MRET: case Op::SRET:
      case Op::CSRRW: case Op::CSRRS: case Op::CSRRC:
        return OpClass::System;
      case Op::FLD:
        return OpClass::FpLoad;
      case Op::FSD:
        return OpClass::FpStore;
      case Op::FADD_D: case Op::FSUB_D: case Op::FMUL_D:
        return OpClass::FpAlu;
      case Op::FDIV_D:
        return OpClass::FpDiv;
      case Op::FMV_X_D: case Op::FMV_D_X:
        return OpClass::FpMove;
      case Op::SWAPNEXT:
        return OpClass::Custom;
      case Op::ILLEGAL:
        return OpClass::IllegalOp;
      default:
        return OpClass::IntAlu; // lui, auipc, immediate and register ALU
    }
}

/** True for conditional branches. */
constexpr bool isBranch(Op op) { return opClass(op) == OpClass::Branch; }

/** True for any load (integer or FP). */
constexpr bool
isLoad(Op op)
{
    OpClass c = opClass(op);
    return c == OpClass::Load || c == OpClass::FpLoad;
}

/** True for any store (integer or FP). */
constexpr bool
isStore(Op op)
{
    OpClass c = opClass(op);
    return c == OpClass::Store || c == OpClass::FpStore;
}

/** Byte width of a memory access op (0 for non-memory ops). */
constexpr unsigned
accessBytes(Op op)
{
    switch (op) {
      case Op::LB: case Op::LBU: case Op::SB:
        return 1;
      case Op::LH: case Op::LHU: case Op::SH:
        return 2;
      case Op::LW: case Op::LWU: case Op::SW:
        return 4;
      case Op::LD: case Op::SD: case Op::FLD: case Op::FSD:
        return 8;
      default:
        return 0;
    }
}

/** True when the load sign-extends its result. */
constexpr bool
loadSigned(Op op)
{
    return op == Op::LB || op == Op::LH || op == Op::LW;
}

/** True for ops that write an integer destination register. */
constexpr bool
writesIntRd(Op op)
{
    switch (opClass(op)) {
      case OpClass::IntAlu:
      case OpClass::MulDiv:
      case OpClass::Load:
      case OpClass::Jal:
      case OpClass::Jalr:
        return true;
      case OpClass::System:
        return op == Op::CSRRW || op == Op::CSRRS || op == Op::CSRRC;
      case OpClass::FpMove:
        return op == Op::FMV_X_D;
      default:
        return false;
    }
}

/** True for ops that read rs1 as an integer source. */
constexpr bool
readsIntRs1(Op op)
{
    switch (op) {
      case Op::LUI: case Op::AUIPC: case Op::JAL:
      case Op::ECALL: case Op::EBREAK: case Op::MRET: case Op::SRET:
      case Op::FENCE: case Op::FENCE_I: case Op::SWAPNEXT:
      case Op::ILLEGAL:
      case Op::FADD_D: case Op::FSUB_D: case Op::FMUL_D:
      case Op::FDIV_D: case Op::FMV_X_D:
        return false;
      default:
        return true;
    }
}

/** True for ops that read rs2 as an integer source. */
constexpr bool
readsIntRs2(Op op)
{
    switch (opClass(op)) {
      case OpClass::Branch:
      case OpClass::Store:
      case OpClass::MulDiv:
        return true;
      case OpClass::IntAlu:
        // Register-register ALU forms only.
        switch (op) {
          case Op::ADD: case Op::SUB: case Op::SLL: case Op::SLT:
          case Op::SLTU: case Op::XOR: case Op::SRL: case Op::SRA:
          case Op::OR: case Op::AND: case Op::ADDW: case Op::SUBW:
          case Op::SLLW: case Op::SRLW: case Op::SRAW:
            return true;
          default:
            return false;
        }
      default:
        return false;
    }
}

/** True for ops whose rd/rs are FP registers (per-operand view). */
constexpr bool
fpRd(Op op)
{
    switch (op) {
      case Op::FLD: case Op::FADD_D: case Op::FSUB_D:
      case Op::FMUL_D: case Op::FDIV_D: case Op::FMV_D_X:
        return true;
      default:
        return false;
    }
}

constexpr bool
fpRs1(Op op)
{
    switch (op) {
      case Op::FADD_D: case Op::FSUB_D: case Op::FMUL_D:
      case Op::FDIV_D: case Op::FMV_X_D:
        return true;
      default:
        return false;
    }
}

constexpr bool
fpRs2(Op op)
{
    switch (op) {
      case Op::FADD_D: case Op::FSUB_D: case Op::FMUL_D:
      case Op::FDIV_D: case Op::FSD:
        return true;
      default:
        return false;
    }
}

/** Call/return idioms per the RISC-V ABI (drives the RAS). */
inline bool
isCall(const Instr &instr)
{
    return (instr.op == Op::JAL || instr.op == Op::JALR) &&
           (instr.rd == 1 || instr.rd == 5);
}

inline bool
isRet(const Instr &instr)
{
    return instr.op == Op::JALR && instr.rd == 0 &&
           (instr.rs1 == 1 || instr.rs1 == 5) && instr.imm == 0;
}

/** ABI register name ("zero", "ra", "a0", ...). */
const char *regName(unsigned index);
/** FP register name ("ft0", "fa0", ...). */
const char *fregName(unsigned index);

/** Render an instruction as assembly text. */
std::string disasm(const Instr &instr);

/** Common ABI register indices used throughout the generator. */
namespace reg {
constexpr uint8_t zero = 0, ra = 1, sp = 2, gp = 3, tp = 4;
constexpr uint8_t t0 = 5, t1 = 6, t2 = 7;
constexpr uint8_t s0 = 8, s1 = 9;
constexpr uint8_t a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15;
constexpr uint8_t a6 = 16, a7 = 17;
constexpr uint8_t s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23;
constexpr uint8_t s8 = 24, s9 = 25, s10 = 26, s11 = 27;
constexpr uint8_t t3 = 28, t4 = 29, t5 = 30, t6 = 31;
} // namespace reg

} // namespace dejavuzz::isa

#endif // DEJAVUZZ_ISA_INSTR_HH
