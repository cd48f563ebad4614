#include "isa/builder.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace dejavuzz::isa {

Label
ProgBuilder::newLabel()
{
    label_addrs_.push_back(~0ULL);
    return Label{static_cast<int>(label_addrs_.size()) - 1};
}

void
ProgBuilder::bind(Label label)
{
    dv_assert(label.id >= 0 &&
              label.id < static_cast<int>(label_addrs_.size()));
    dv_assert(label_addrs_[label.id] == ~0ULL);
    label_addrs_[label.id] = here();
}

uint64_t
ProgBuilder::labelAddr(Label label) const
{
    dv_assert(label.id >= 0 &&
              label.id < static_cast<int>(label_addrs_.size()));
    uint64_t addr = label_addrs_[label.id];
    dv_assert(addr != ~0ULL);
    return addr;
}

void
ProgBuilder::emit(const Instr &instr)
{
    dv_assert(!finished_);
    instrs_.push_back(instr);
}

void
ProgBuilder::emit(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2,
                  int64_t imm)
{
    Instr instr;
    instr.op = op;
    instr.rd = rd;
    instr.rs1 = rs1;
    instr.rs2 = rs2;
    instr.imm = imm;
    emit(instr);
}

void
ProgBuilder::li(uint8_t rd, uint64_t value)
{
    const auto sval = static_cast<int64_t>(value);
    if (sval >= -2048 && sval <= 2047) {
        addi(rd, 0, sval);
        return;
    }
    if (sval >= INT32_MIN && sval <= INT32_MAX) {
        // lui+addiw handles the full signed 32-bit range.
        int64_t hi = (sval + 0x800) >> 12;
        int64_t lo = sval - (hi << 12);
        emit(Op::LUI, rd, 0, 0, hi & 0xfffff);
        if (lo != 0)
            emit(Op::ADDIW, rd, rd, 0, lo);
        return;
    }
    // General 64-bit: seed rd with the signed high half, then shift in
    // the low 32 bits as three non-negative sub-2048 chunks so addi
    // immediates never sign-extend.
    li(rd, static_cast<uint64_t>(sval >> 32));
    uint64_t low = value & 0xffffffffULL;
    slli(rd, rd, 11);
    if (uint64_t chunk = (low >> 21) & 0x7ff)
        addi(rd, rd, static_cast<int64_t>(chunk));
    slli(rd, rd, 11);
    if (uint64_t chunk = (low >> 10) & 0x7ff)
        addi(rd, rd, static_cast<int64_t>(chunk));
    slli(rd, rd, 10);
    if (uint64_t chunk = low & 0x3ff)
        addi(rd, rd, static_cast<int64_t>(chunk));
}

void
ProgBuilder::branch(Op op, uint8_t rs1, uint8_t rs2, Label target)
{
    dv_assert(isBranch(op));
    fixups_.push_back(Fixup{instrs_.size(), target.id});
    emit(op, 0, rs1, rs2, 0);
}

void
ProgBuilder::branchTo(Op op, uint8_t rs1, uint8_t rs2, uint64_t target)
{
    dv_assert(isBranch(op));
    int64_t offset = static_cast<int64_t>(target) -
                     static_cast<int64_t>(here());
    dv_assert(offset >= -4096 && offset < 4096 && (offset & 1) == 0);
    emit(op, 0, rs1, rs2, offset);
}

void
ProgBuilder::jal(uint8_t rd, Label target)
{
    fixups_.push_back(Fixup{instrs_.size(), target.id});
    emit(Op::JAL, rd, 0, 0, 0);
}

void
ProgBuilder::jalTo(uint8_t rd, uint64_t target)
{
    int64_t offset = static_cast<int64_t>(target) -
                     static_cast<int64_t>(here());
    dv_assert(offset >= -(1 << 20) && offset < (1 << 20) &&
              (offset & 1) == 0);
    emit(Op::JAL, rd, 0, 0, offset);
}

void
ProgBuilder::padTo(uint64_t addr)
{
    dv_assert(addr >= here() && (addr & 3) == 0);
    if (addr == here())
        return;
    // One bulk append of the NOP run nop() would emit word by word.
    dv_assert(!finished_);
    Instr nop;
    nop.op = Op::ADDI;
    instrs_.resize(instrs_.size() + (addr - here()) / 4, nop);
}

const std::vector<Instr> &
ProgBuilder::finish()
{
    if (finished_)
        return instrs_;
    for (const Fixup &fixup : fixups_) {
        uint64_t target = label_addrs_[fixup.label];
        dv_assert(target != ~0ULL);
        uint64_t pc = base_ + 4 * fixup.index;
        int64_t offset = static_cast<int64_t>(target) -
                         static_cast<int64_t>(pc);
        Instr &instr = instrs_[fixup.index];
        if (instr.op == Op::JAL) {
            dv_assert(offset >= -(1 << 20) && offset < (1 << 20));
        } else {
            dv_assert(offset >= -4096 && offset < 4096);
        }
        instr.imm = offset;
    }
    fixups_.clear();
    finished_ = true;
    return instrs_;
}

std::vector<uint32_t>
ProgBuilder::words()
{
    finish();
    std::vector<uint32_t> result;
    result.reserve(instrs_.size());
    for (const Instr &instr : instrs_)
        result.push_back(encode(instr));
    return result;
}

} // namespace dejavuzz::isa
