#include "core/stimgen.hh"

#include <bit>

#include "swapmem/layout.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace dejavuzz::core {

using isa::Label;
using isa::Op;
using isa::ProgBuilder;
using namespace isa::reg;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapSchedule;

namespace {

/** Probe base: offset so encode lines never alias the secret line. */
constexpr uint64_t kProbeBase = swapmem::kLeakArrayAddr + 0x100;
/**
 * Scratch sub-areas. The scratch base itself maps to the same
 * direct-mapped cache index as the secret line; every generator touch
 * is offset so warming scratch never evicts the warmed secret.
 */
constexpr uint64_t kSafeScratch = swapmem::kScratchAddr + 0x40;
constexpr uint64_t kDisambAddr = swapmem::kScratchAddr + 0x80;
constexpr uint64_t kColdScratch = swapmem::kScratchAddr + 0x200;

/** Branch operand giving the requested outcome against a1 = 5. */
constexpr int64_t kBranchConst = 5;

int64_t
branchOperand(Op op, bool taken)
{
    switch (op) {
      case Op::BEQ:  return taken ? 5 : 6;
      case Op::BNE:  return taken ? 6 : 5;
      case Op::BLT:  return taken ? 4 : 5;
      case Op::BGE:  return taken ? 5 : 4;
      case Op::BLTU: return taken ? 4 : 5;
      case Op::BGEU: return taken ? 5 : 4;
      default:
        dv_panic("not a branch op");
    }
}

constexpr Op kBranchOps[6] = {Op::BEQ, Op::BNE, Op::BLT,
                              Op::BGE, Op::BLTU, Op::BGEU};

/** Operand-slot roles. */
enum OperandSlot : unsigned {
    kSlotBranchOperand = 0,
    kSlotArchTarget = 1,
    kSlotFaultAddr = 2,
    kSlotDisambAddr = 3,
};

} // namespace

Seed
StimGen::newSeed(Rng &rng, uint64_t id, TriggerKind force,
                 uint32_t trigger_mask, uint32_t model_mask) const
{
    Seed seed;
    seed.id = id;

    // Attack template. The legacy single-model mask draws nothing so
    // pre-existing seed trajectories stay bit-identical.
    model_mask &= kAllModelMask;
    if (model_mask == 0)
        model_mask = kLegacyModelMask;
    if (model_mask != kLegacyModelMask) {
        unsigned count =
            static_cast<unsigned>(popcount64(model_mask));
        unsigned pick = static_cast<unsigned>(rng.below(count));
        uint32_t bits = model_mask;
        for (unsigned i = 0; i < pick; ++i)
            bits &= bits - 1;
        seed.model.tmpl = static_cast<AttackTemplate>(
            std::countr_zero(bits));
    }
    if (force != TriggerKind::kCount &&
        (templateTriggerMask(seed.model.tmpl) & triggerBit(force)) ==
            0) {
        // A pinned trigger overrides the drawn template: take the
        // first template that can instantiate it.
        for (unsigned t = 0; t < kAttackTemplates; ++t) {
            auto tmpl = static_cast<AttackTemplate>(t);
            if (templateTriggerMask(tmpl) & triggerBit(force)) {
                seed.model.tmpl = tmpl;
                break;
            }
        }
    }

    uint32_t allowed =
        trigger_mask & templateTriggerMask(seed.model.tmpl);
    if (allowed == 0)
        allowed = templateTriggerMask(seed.model.tmpl);
    if (force != TriggerKind::kCount) {
        seed.trigger = force;
    } else {
        unsigned count = static_cast<unsigned>(popcount64(allowed));
        unsigned pick = static_cast<unsigned>(rng.below(count));
        uint32_t bits = allowed;
        for (unsigned i = 0; i < pick; ++i)
            bits &= bits - 1;
        seed.trigger =
            static_cast<TriggerKind>(std::countr_zero(bits));
    }

    seed.entropy = rng.next();
    seed.window.encode_entropy = rng.next();
    seed.window.encode_ops = 1 + static_cast<unsigned>(rng.below(6));
    seed.window.mask_high_bits = rng.chance(1, 6);
    switch (seed.trigger) {
      case TriggerKind::LoadAccessFault:
        // Meltdown and PMP protection are decoupled: non-meltdown
        // windows fault on the always-denied guard block while the
        // secret stays architecturally readable (Spectre-style).
        seed.window.meltdown = rng.chance(1, 2);
        seed.window.prot = seed.window.meltdown
                               ? swapmem::SecretProt::Pmp
                               : swapmem::SecretProt::Open;
        break;
      case TriggerKind::LoadPageFault:
        seed.window.meltdown = rng.chance(1, 2);
        seed.window.prot = seed.window.meltdown
                               ? swapmem::SecretProt::Pte
                               : swapmem::SecretProt::Open;
        break;
      case TriggerKind::LoadMisalign:
        seed.window.meltdown = rng.chance(1, 2);
        seed.window.prot = swapmem::SecretProt::Open;
        break;
      case TriggerKind::PrivEcall:
      case TriggerKind::PrivReturn:
        // Meltdown flavour keeps the secret PMP-protected: the ecall
        // shadow reads it through transient fault forwarding, and the
        // post-mret window reads it under the stale M privilege.
        seed.window.meltdown = rng.chance(1, 2);
        seed.window.prot = seed.window.meltdown
                               ? swapmem::SecretProt::Pmp
                               : swapmem::SecretProt::Open;
        break;
      default:
        seed.window.meltdown = false;
        seed.window.prot = swapmem::SecretProt::Open;
        break;
    }

    // Template instantiation: privilege pair and victim placement.
    switch (seed.model.tmpl) {
      case AttackTemplate::MeltdownSupervisor:
        seed.model.attacker = isa::Priv::U;
        seed.model.victim = isa::Priv::S;
        seed.model.supervisor_victim = true;
        // The supervisor placement itself protects the secret.
        seed.window.meltdown = true;
        seed.window.prot = swapmem::SecretProt::Open;
        break;
      case AttackTemplate::PrivTransition:
        seed.model.attacker = isa::Priv::U;
        seed.model.victim = isa::Priv::M;
        break;
      case AttackTemplate::SameDomain:
      case AttackTemplate::DoubleFetch:
      case AttackTemplate::kCount:
        break;
    }
    return seed;
}

StimGen::Layout
StimGen::drawLayout(const Seed &seed) const
{
    Rng rng(seed.entropy);
    Layout layout{};
    layout.trigger_addr =
        swapmem::kSwapBase + kTriggerMinOff +
        4 * rng.below((kTriggerMaxOff - kTriggerMinOff) / 4);
    layout.branch_op = kBranchOps[rng.below(6)];
    layout.store_variant = rng.chance(1, 4);
    layout.training_packets = 1 + static_cast<unsigned>(rng.below(3));

    switch (seed.trigger) {
      case TriggerKind::BranchMispredict:
        // Window on the taken side needs taken-training; window on the
        // fall-through triggers with the default not-taken prediction.
        layout.window_on_fallthrough = rng.chance(1, 2);
        layout.arch_taken = layout.window_on_fallthrough;
        layout.window_addr = layout.window_on_fallthrough
                                 ? layout.trigger_addr + 4
                                 : layout.trigger_addr + kTakenWindowGap;
        break;
      case TriggerKind::IndirectMispredict:
      case TriggerKind::ReturnMispredict:
        layout.window_on_fallthrough = false;
        layout.window_addr = layout.trigger_addr + kTakenWindowGap;
        break;
      case TriggerKind::MemDisambiguation:
        layout.window_on_fallthrough = true;
        layout.window_addr = layout.trigger_addr + 4; // the load
        break;
      default: // exceptions
        layout.window_on_fallthrough = true;
        layout.window_addr = layout.trigger_addr + 4;
        break;
    }

    switch (seed.trigger) {
      case TriggerKind::LoadAccessFault:
        layout.fault_addr = seed.window.meltdown
                                ? swapmem::kSecretAddr
                                : swapmem::kPmpGuardAddr;
        break;
      case TriggerKind::LoadPageFault:
        layout.fault_addr = seed.window.meltdown
                                ? swapmem::kSecretAddr
                                : swapmem::kUnmappedAddr;
        break;
      case TriggerKind::LoadMisalign:
        layout.fault_addr = (seed.window.meltdown
                                 ? swapmem::kSecretAddr
                                 : swapmem::kScratchAddr) +
                            1 + rng.below(3);
        break;
      default:
        layout.fault_addr = 0;
        break;
    }
    return layout;
}

void
StimGen::emitSetup(ProgBuilder &prog, const Seed &seed,
                   const Layout &layout) const
{
    // Fixed register conventions (see header).
    prog.li(s1, swapmem::kSecretAddr);
    prog.li(t2, kProbeBase);
    prog.li(t3, kSafeScratch);
    prog.li(t5, 1);
    if (seed.window.mask_high_bits)
        prog.li(t6, 1ULL << 63);

    // FP operands + an architectural divide in flight across the
    // window (Spectre-Rewind-style contention baseline).
    prog.li(t1, 0x4010000000000000ULL); // 4.0
    prog.emit(Op::FMV_D_X, 2, t1, 0, 0);
    prog.li(t1, 0x4000000000000000ULL); // 2.0
    prog.emit(Op::FMV_D_X, 3, t1, 0, 0);

    // Jump-pad / far-line bases for control-transfer encodes.
    prog.li(s5, swapmem::kSwapBase + kJumpPadOff);
    prog.li(s6, swapmem::kSwapBase + 0x1000);

    // Warm the scratch line (hit loads + disambiguation speculation).
    prog.ld(t1, t3, 0);
    if (seed.trigger == TriggerKind::MemDisambiguation) {
        prog.li(a4, kDisambAddr);
        prog.ld(t1, a4, 0); // warm the aliased line
    }

    // Prime the committed RAS so below-TOS entries are live (makes
    // Phantom-RSB-style corruption observable). Return triggers skip
    // this: their trained RAS top must stay in place.
    if (seed.trigger != TriggerKind::ReturnMispredict) {
        for (int i = 0; i < 3; ++i) {
            Label cont = prog.newLabel();
            prog.jal(1, cont);
            prog.nop();
            prog.bind(cont);
        }
    }

    // A cold architectural load kept in flight across the window (the
    // B5 write-back-port victim).
    prog.li(t1, kColdScratch);
    prog.ld(s7, t1, 0);

    // The architectural FP divide racing transient divides.
    prog.emit(Op::FDIV_D, 5, 2, 3, 0);

    // Slow trigger operands: a cold dedicated-region load feeding an
    // unpipelined divide chain delays trigger resolution, widening the
    // window well past the window-line icache refill. The chain must
    // sit immediately before the trigger - emitted earlier it would
    // resolve long before fetch even reaches the trigger.
    auto emitChain = [&](isa::ProgBuilder &out) {
        auto slowLoad = [&](uint8_t rd, unsigned slot) {
            out.li(t1, swapmem::kOperandAddr + 8 * slot);
            out.ld(rd, t1, 0);
            out.emit(Op::DIV, rd, rd, t5, 0);
            out.emit(Op::DIV, rd, rd, t5, 0);
        };
        switch (seed.trigger) {
          case TriggerKind::BranchMispredict:
            out.li(a1, kBranchConst);
            slowLoad(a0, kSlotBranchOperand);
            break;
          case TriggerKind::IndirectMispredict:
            slowLoad(a0, kSlotArchTarget);
            break;
          case TriggerKind::ReturnMispredict:
            slowLoad(1 /*ra*/, kSlotArchTarget);
            break;
          case TriggerKind::LoadAccessFault:
          case TriggerKind::LoadPageFault:
          case TriggerKind::LoadMisalign:
            slowLoad(a0, kSlotFaultAddr);
            break;
          case TriggerKind::MemDisambiguation:
            out.li(a2, 0x5a);
            slowLoad(a3, kSlotDisambAddr);
            break;
          case TriggerKind::IllegalInstr:
          case TriggerKind::PrivEcall:
          case TriggerKind::PrivReturn:
          case TriggerKind::kCount:
            break;
        }
    };
    // Dry-build to learn the chain length (no labels inside).
    isa::ProgBuilder scratch(swapmem::kSwapBase);
    emitChain(scratch);
    uint64_t chain_bytes = 4 * scratch.size();
    dv_assert(prog.here() + chain_bytes <= layout.trigger_addr);
    prog.padTo(layout.trigger_addr - chain_bytes);
    emitChain(prog);
    dv_assert(prog.here() == layout.trigger_addr);
}

void
StimGen::emitTrigger(ProgBuilder &prog, const Seed &seed,
                     const Layout &layout) const
{
    const uint64_t exit_addr = swapmem::kSwapBase + kExitOff;
    switch (seed.trigger) {
      case TriggerKind::BranchMispredict:
        if (layout.window_on_fallthrough) {
            // Architecturally taken to a trampoline past the window
            // body; the caller emits the trampoline.
            prog.branchTo(layout.branch_op, a0, a1,
                          layout.trigger_addr + kTakenWindowGap * 4);
        } else {
            // Architecturally not taken; the taken side is the window.
            prog.branchTo(layout.branch_op, a0, a1, layout.window_addr);
            prog.swapnext(); // architectural continuation
        }
        break;
      case TriggerKind::IndirectMispredict:
        prog.jalr(0, a0, 0); // arch target: exit (operand slot)
        break;
      case TriggerKind::ReturnMispredict:
        prog.ret(); // arch target: exit (via ra)
        break;
      case TriggerKind::LoadAccessFault:
      case TriggerKind::LoadPageFault:
      case TriggerKind::LoadMisalign:
        if (layout.store_variant)
            prog.emit(Op::SD, 0, a0, a1, 0);
        else
            prog.ld(t1, a0, 0);
        break;
      case TriggerKind::IllegalInstr:
        prog.illegal();
        break;
      case TriggerKind::PrivEcall:
        prog.ecall();
        break;
      case TriggerKind::PrivReturn:
        // The privilege-entry training packet left the core in M
        // mode, so the return commits cleanly and flushes the window.
        if (layout.store_variant)
            prog.emit(Op::SRET, 0, 0, 0, 0);
        else
            prog.mret();
        break;
      case TriggerKind::MemDisambiguation:
        prog.sd(a2, a3, 0);  // slow-address store
        prog.ld(s2, a4, 0);  // speculative load (the window opener)
        break;
      case TriggerKind::kCount:
        break;
    }
    (void)exit_addr;
}

std::pair<size_t, size_t>
StimGen::emitWindowBody(ProgBuilder &prog, const Seed &seed,
                        const Layout &layout, bool payload) const
{
    if (!payload) {
        // Phase 1 dummy window: nops only.
        Rng rng(seed.window.encode_entropy);
        unsigned n = 6 + static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < n; ++i)
            prog.nop();
        size_t mark = prog.size();
        return {mark, mark};
    }

    Rng rng(seed.window.encode_entropy);

    // Space budget: the body must not run into the branch trampoline
    // (fall-through branch windows) or the jump pad.
    uint64_t body_end = swapmem::kSwapBase + kJumpPadOff;
    if (seed.trigger == TriggerKind::BranchMispredict &&
        layout.window_on_fallthrough) {
        body_end = layout.trigger_addr + kTakenWindowGap * 4;
    }
    const size_t body_limit =
        static_cast<size_t>((body_end - prog.here()) / 4);
    const size_t body_start = prog.size();

    // --- secret access block -------------------------------------------
    unsigned widths[4] = {1, 2, 4, 8};
    unsigned width = widths[rng.below(4)];
    Op access_ops[4] = {Op::LB, Op::LH, Op::LW, Op::LD};
    Op access = access_ops[width == 1 ? 0 : width == 2 ? 1
                           : width == 4 ? 2 : 3];
    int64_t offset = static_cast<int64_t>(
        rng.below(swapmem::kSecretBytes / width) * width);
    uint8_t addr_reg = s1;
    if (seed.window.mask_high_bits) {
        // MDS-style masked (illegal) address: bait for B1 truncation.
        prog.emit(Op::OR, s2, s1, t6, 0);
        addr_reg = s2;
    }
    prog.emit(access, s0, addr_reg, 0, offset);

    // --- secret encoding block -----------------------------------------
    size_t encode_begin = prog.size();
    bool ras_primed = seed.trigger != TriggerKind::ReturnMispredict;
    for (unsigned g = 0; g < seed.window.encode_ops; ++g) {
        // Leave room for the largest gadget (~18 instructions).
        if (prog.size() - body_start + 20 > body_limit)
            break;
        unsigned pick = static_cast<unsigned>(rng.below(11));
        if (pick <= 3) {
            // dcache encode: 1-3 probe lines indexed by secret bits -
            // the per-module tainted-entry count varies with both the
            // probe count and the secret, diversifying coverage.
            unsigned probes = 1 + static_cast<unsigned>(rng.below(3));
            for (unsigned p = 0; p < probes; ++p) {
                unsigned bit = static_cast<unsigned>(rng.below(8));
                prog.emit(Op::SRLI, t4, s0, 0, bit);
                prog.andi(t4, t4, 3);
                prog.slli(t4, t4, 6);
                prog.add(t4, t4, t2);
                prog.ld(s3, t4, 64 * 4 * p);
            }
        } else if (pick == 10) {
            // PRF spray: an arithmetic diffusion chain tainting a
            // variable number of physical registers.
            unsigned chain = 1 + static_cast<unsigned>(rng.below(5));
            uint8_t dests[5] = {s2, s3, s4, s8, s9};
            for (unsigned c = 0; c < chain; ++c) {
                prog.emit(Op::XOR, dests[c], s0, dests[c], 0);
                prog.emit(Op::SRLI, s0, s0, 0, 1);
            }
        } else if (pick == 4) {
            // FP-divide contention behind a secret branch.
            prog.andi(t4, s0, 1);
            Label skip = prog.newLabel();
            prog.branch(Op::BEQ, t4, zero, skip);
            prog.emit(Op::FDIV_D, 6, 2, 3, 0);
            prog.bind(skip);
        } else if (pick == 5) {
            // TLB encode: page indexed by a secret bit.
            prog.andi(t4, s0, 1);
            prog.slli(t4, t4, 12);
            prog.add(t4, t4, t3);
            prog.ld(s4, t4, 0);
        } else if (pick == 6 && ras_primed) {
            // RAS spray behind a secret branch: enough transient calls
            // to wrap the stack and corrupt below-TOS entries (B2).
            prog.andi(t4, s0, 1);
            Label skip = prog.newLabel();
            prog.branch(Op::BEQ, t4, zero, skip);
            for (unsigned i = 0; i < cfg_.ras_entries; ++i)
                prog.emit(Op::JAL, 1, 0, 0, 4);
            prog.bind(skip);
        } else if (pick == 7) {
            // Store-queue encode (address and data tainted).
            prog.andi(t4, s0, 0xf);
            prog.slli(t4, t4, 3);
            prog.add(t4, t4, t3);
            prog.sd(s0, t4, 0);
        } else if (pick == 8) {
            // Secret-dependent hit loads stealing the write-back port
            // from the in-flight cold load (B5).
            prog.andi(t4, s0, 1);
            Label skip = prog.newLabel();
            prog.branch(Op::BEQ, t4, zero, skip);
            prog.ld(t1, t3, 0);
            prog.ld(t1, t3, 8);
            prog.ld(t1, t3, 16);
            prog.bind(skip);
        } else if (pick == 9) {
            // Terminal: transient indirect jump to a secret-indexed
            // target (predictor encode via the jump pad, or a far
            // icache line for fetch-port contention, B4).
            bool far = rng.chance(1, 2);
            prog.andi(t4, s0, 1);
            prog.slli(t4, t4, far ? 11 : 3);
            prog.add(t4, t4, far ? s6 : s5);
            prog.jalr(0, t4, 0);
            break; // control leaves the window body
        } else {
            // Arithmetic diffusion of the secret.
            prog.emit(Op::XOR, s4, s0, t2, 0);
            prog.add(s4, s4, s0);
        }
    }
    size_t encode_end = prog.size();
    return {encode_begin, encode_end};
}

SwapPacket
StimGen::buildTransient(const Seed &seed, const Layout &layout,
                        bool payload, TestCase &tc) const
{
    ProgBuilder prog(swapmem::kSwapBase);
    emitSetup(prog, seed, layout);
    emitTrigger(prog, seed, layout);

    const uint64_t exit_addr = swapmem::kSwapBase + kExitOff;
    const uint64_t pad_addr = swapmem::kSwapBase + kJumpPadOff;

    bool branch_ft_window =
        seed.trigger == TriggerKind::BranchMispredict &&
        layout.window_on_fallthrough;

    prog.padTo(layout.window_addr > prog.here() ? layout.window_addr
                                                : prog.here());

    auto [enc_begin, enc_end] = emitWindowBody(prog, seed, layout,
                                               payload);

    if (branch_ft_window) {
        // The architecturally-taken branch lands on this trampoline.
        prog.padTo(layout.trigger_addr + kTakenWindowGap * 4);
        prog.jTo(exit_addr);
    }

    prog.padTo(pad_addr);
    // Jump pad: nops flowing into the exit.
    prog.padTo(exit_addr);
    prog.swapnext();
    prog.nop();
    prog.nop();

    tc.trigger_addr = layout.trigger_addr;
    tc.window_addr = layout.window_addr;
    tc.encode_begin = enc_begin;
    tc.encode_end = enc_end;
    tc.has_window_payload = payload;

    SwapPacket packet;
    packet.label = "transient";
    packet.kind = PacketKind::Transient;
    packet.instrs = prog.finish();
    return packet;
}

SwapPacket
StimGen::derivedTraining(const Seed &seed, const Layout &layout,
                         unsigned index, Rng &rng) const
{
    ProgBuilder prog(swapmem::kSwapBase);

    switch (seed.trigger) {
      case TriggerKind::BranchMispredict: {
        // Train the opposite direction of the transient architectural
        // outcome, with the control flow matched to the window.
        bool train_taken = !layout.arch_taken;
        prog.li(a0, branchOperand(layout.branch_op, train_taken));
        prog.li(a1, kBranchConst);
        prog.padTo(layout.trigger_addr);
        prog.branchTo(layout.branch_op, a0, a1, layout.window_addr);
        prog.swapnext(); // not-taken continuation
        if (layout.window_addr > prog.here()) {
            prog.padTo(layout.window_addr);
            prog.swapnext(); // taken continuation (the window's slot)
        }
        break;
      }
      case TriggerKind::IndirectMispredict:
        // Same jump address, target steered to the window.
        prog.li(t5, layout.window_addr);
        prog.padTo(layout.trigger_addr);
        prog.jalr(0, t5, 0);
        prog.padTo(layout.window_addr);
        prog.swapnext();
        break;
      case TriggerKind::ReturnMispredict:
        // A call whose return address is the window start; the callee
        // exits without returning, leaving the RAS entry armed.
        prog.padTo(layout.window_addr - 4);
        prog.emit(Op::JAL, 1, 0, 0, 8); // call over the next slot
        prog.nop();                     // (the window-start slot)
        prog.swapnext();                // callee: exit w/o ret
        break;
      default:
        // Exception / disambiguation windows have no trainable
        // predictor state; emit a placeholder computation that the
        // reduction strategy will discard.
        prog.li(t5, rng.next() & 0xfff);
        prog.padTo(layout.trigger_addr);
        prog.add(t5, t5, t5);
        break;
    }
    SwapPacket packet;
    packet.label = "trigger_train_" + std::to_string(index);
    packet.kind = PacketKind::TriggerTrain;
    packet.instrs = prog.finish();
    if (packet.instrs.empty() ||
        packet.instrs.back().op != Op::SWAPNEXT) {
        isa::Instr end;
        end.op = Op::SWAPNEXT;
        packet.instrs.push_back(end);
    }
    return packet;
}

SwapPacket
StimGen::randomTraining(Rng &rng, unsigned index) const
{
    // DejaVuzz*: unaligned, control-flow-agnostic random instructions.
    ProgBuilder prog(swapmem::kSwapBase);
    prog.li(t3, swapmem::kScratchAddr);
    unsigned count = 60 + static_cast<unsigned>(rng.below(80));
    for (unsigned i = 0; i < count; ++i) {
        auto rd = static_cast<uint8_t>(5 + rng.below(3));
        auto rs = static_cast<uint8_t>(5 + rng.below(3));
        unsigned pick = static_cast<unsigned>(rng.below(20));
        if (pick < 12) {
            static constexpr Op kArith[5] = {Op::ADD, Op::SUB, Op::XOR,
                                             Op::MUL, Op::AND};
            prog.emit(kArith[rng.below(5)], rd, rs,
                      static_cast<uint8_t>(5 + rng.below(3)), 0);
        } else if (pick < 14) {
            prog.addi(rd, rs, static_cast<int64_t>(rng.below(64)));
        } else if (pick < 16) {
            prog.ld(rd, t3, static_cast<int64_t>(8 * rng.below(16)));
        } else if (pick < 18) {
            // Random forward branch.
            Label target = prog.newLabel();
            static constexpr Op kBr[3] = {Op::BEQ, Op::BNE, Op::BLT};
            prog.branch(kBr[rng.below(3)], rd, rs, target);
            unsigned skip = 1 + static_cast<unsigned>(rng.below(3));
            for (unsigned k = 0; k < skip; ++k)
                prog.nop();
            prog.bind(target);
        } else if (pick < 19) {
            prog.emit(Op::JAL, 1, 0, 0, 4); // call-to-next (RAS push)
        } else {
            // Forward indirect jump to a known later address
            // (li expands to two instructions for these values).
            uint64_t target = prog.here() + 16 + 4 * rng.below(4);
            prog.li(t5, target);
            prog.jalr(0, t5, 0);
            prog.padTo(target);
        }
    }
    prog.swapnext();

    SwapPacket packet;
    packet.label = "trigger_train_rand_" + std::to_string(index);
    packet.kind = PacketKind::TriggerTrain;
    packet.instrs = prog.finish();
    return packet;
}

void
StimGen::fillOperands(TestCase &tc, const Layout &layout) const
{
    auto &operands = tc.data.operands;
    if (operands.size() < 8)
        operands.resize(8);
    const uint64_t exit_addr = swapmem::kSwapBase + kExitOff;
    operands[kSlotBranchOperand] = static_cast<uint64_t>(
        branchOperand(layout.branch_op, layout.arch_taken));
    operands[kSlotArchTarget] = exit_addr;
    operands[kSlotFaultAddr] = layout.fault_addr;
    operands[kSlotDisambAddr] = kDisambAddr;
}

TestCase
StimGen::generatePhase1(const Seed &seed, bool derived_training) const
{
    TestCase tc;
    tc.seed = seed;
    Layout layout = drawLayout(seed);

    Rng data_rng(seed.entropy ^ 0xa5a5a5a5ULL);
    tc.data = harness::StimulusData::random(data_rng);
    fillOperands(tc, layout);

    Rng train_rng(seed.entropy ^ 0x5c5c5c5cULL);
    for (unsigned i = 0; i < layout.training_packets; ++i) {
        tc.schedule.packets.push_back(
            derived_training ? derivedTraining(seed, layout, i, train_rng)
                             : randomTraining(train_rng, i));
    }
    if (seed.trigger == TriggerKind::PrivReturn) {
        // Privilege entry: an ecall traps to M mode and the trap
        // itself advances the swap runtime, so the transient packet
        // starts executing privileged until its mret/sret commits.
        // Training reduction cannot drop this packet - without it the
        // return raises IllegalInstr and the window check fails.
        ProgBuilder entry(swapmem::kSwapBase);
        entry.nop();
        entry.nop();
        entry.ecall();
        SwapPacket entry_packet;
        entry_packet.label = "priv_entry";
        entry_packet.kind = PacketKind::TriggerTrain;
        entry_packet.instrs = entry.finish();
        tc.schedule.packets.push_back(entry_packet);
    }
    tc.schedule.packets.push_back(
        buildTransient(seed, layout, false, tc));
    tc.schedule.transient_prot = seed.window.prot;
    tc.schedule.victim_supervisor = seed.model.supervisor_victim;
    tc.schedule.double_fetch =
        seed.model.tmpl == AttackTemplate::DoubleFetch;
    return tc;
}

void
StimGen::completeWindow(TestCase &tc) const
{
    Layout layout = drawLayout(tc.seed);

    // Window training derivation: warm the secret into the d-cache /
    // fill buffers while it is still accessible, and prime the TLB
    // entries of the pages the window body touches (otherwise the
    // encode loads spend the window translating). Scheduled before
    // the trigger training so it cannot invalidate the trained state.
    ProgBuilder warm(swapmem::kSwapBase);
    warm.li(s1, swapmem::kSecretAddr);
    warm.ld(t5, s1, 0);
    warm.ld(t5, s1, 8);
    warm.li(t1, kProbeBase);
    warm.ld(t5, t1, 0x400); // probe page TLB (line stays cold)
    warm.li(t1, kSafeScratch);
    warm.ld(t5, t1, 0);
    warm.swapnext();
    SwapPacket warm_packet;
    warm_packet.label = "window_train_0";
    warm_packet.kind = PacketKind::WindowTrain;
    warm_packet.instrs = warm.finish();

    // Rebuild the transient packet with the real payload.
    size_t transient_index = tc.schedule.transientIndex();
    tc.schedule.packets[transient_index] =
        buildTransient(tc.seed, layout, true, tc);

    // Remove any previous window training, then prepend the new one.
    std::vector<SwapPacket> packets;
    packets.push_back(warm_packet);
    for (auto &packet : tc.schedule.packets) {
        if (packet.kind != PacketKind::WindowTrain)
            packets.push_back(std::move(packet));
    }
    tc.schedule.packets = std::move(packets);
}

void
StimGen::mutateWindow(TestCase &tc, uint64_t new_entropy) const
{
    tc.seed.window.encode_entropy = new_entropy;
    Rng rng(new_entropy);
    tc.seed.window.encode_ops = 1 + static_cast<unsigned>(rng.below(6));
    if (tc.seed.window.prot == swapmem::SecretProt::Open ||
        tc.seed.trigger == TriggerKind::LoadMisalign) {
        tc.seed.window.mask_high_bits = rng.chance(1, 6);
    }
    Layout layout = drawLayout(tc.seed);
    size_t transient_index = tc.schedule.transientIndex();
    tc.schedule.packets[transient_index] =
        buildTransient(tc.seed, layout, true, tc);
}

SwapSchedule
StimGen::sanitizedSchedule(const TestCase &tc) const
{
    dv_assert(tc.has_window_payload);
    SwapSchedule sanitized = tc.schedule;
    size_t transient_index = sanitized.transientIndex();
    auto &instrs = sanitized.packets[transient_index].instrs;
    isa::Instr nop;
    nop.op = Op::ADDI;
    for (size_t i = tc.encode_begin;
         i < tc.encode_end && i < instrs.size(); ++i) {
        instrs[i] = nop;
    }
    return sanitized;
}

} // namespace dejavuzz::core
