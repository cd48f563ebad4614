#include "baseline/specdoctor.hh"

#include "isa/builder.hh"
#include "swapmem/layout.hh"
#include "util/logging.hh"

namespace dejavuzz::baseline {

using core::TriggerKind;
using harness::DutResult;
using isa::Label;
using isa::Op;
using isa::ProgBuilder;
using namespace isa::reg;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapSchedule;
using uarch::SquashCause;
using uarch::SquashRec;

namespace {

constexpr uint64_t kProbeBase = swapmem::kLeakArrayAddr + 0x100;

/** Map a squash record to the Table-3 window taxonomy. */
TriggerKind
classify(const SquashRec &squash)
{
    switch (squash.cause) {
      case SquashCause::Exception:
        switch (squash.exc) {
          case isa::ExcCause::LoadPageFault:
          case isa::ExcCause::StorePageFault:
            return TriggerKind::LoadPageFault;
          case isa::ExcCause::LoadAccessFault:
          case isa::ExcCause::StoreAccessFault:
            return TriggerKind::LoadAccessFault;
          case isa::ExcCause::LoadAddrMisaligned:
          case isa::ExcCause::StoreAddrMisaligned:
            return TriggerKind::LoadMisalign;
          case isa::ExcCause::IllegalInstr:
            return TriggerKind::IllegalInstr;
          default:
            return TriggerKind::LoadPageFault;
        }
      case SquashCause::MemDisambiguation:
        return TriggerKind::MemDisambiguation;
      case SquashCause::BranchMispredict:
        return TriggerKind::BranchMispredict;
      case SquashCause::JumpMispredict:
        return TriggerKind::IndirectMispredict;
      case SquashCause::ReturnMispredict:
        return TriggerKind::ReturnMispredict;
      default:
        return TriggerKind::BranchMispredict;
    }
}

} // namespace

SpecDoctor::SpecDoctor(const uarch::CoreConfig &config,
                       const Options &options)
    : cfg_(config), options_(options), sim_(config),
      rng_(options.master_seed)
{}

SwapSchedule
SpecDoctor::generateProgram(harness::StimulusData &data,
                            size_t &program_len)
{
    data = harness::StimulusData::random(rng_);

    ProgBuilder prog(swapmem::kSwapBase);
    // Fixed prologue: region bases plus a few random register values.
    prog.li(t3, swapmem::kScratchAddr);
    prog.li(s1, swapmem::kSecretAddr);
    prog.li(t2, kProbeBase);
    prog.li(s2, swapmem::kUnmappedAddr);
    for (uint8_t reg = 19; reg <= 22; ++reg) // s3..s6 randoms
        prog.li(reg, rng_.below(256));

    unsigned count =
        options_.program_min +
        static_cast<unsigned>(
            rng_.below(options_.program_max - options_.program_min));

    for (unsigned i = 0; i < count; ++i) {
        unsigned pick = static_cast<unsigned>(rng_.below(100));
        auto rd = static_cast<uint8_t>(5 + rng_.below(3));   // t0..t2'
        auto rs1 = static_cast<uint8_t>(19 + rng_.below(4)); // s3..s6
        auto rs2 = static_cast<uint8_t>(19 + rng_.below(4));
        if (pick < 46) {
            static constexpr Op kArith[6] = {Op::ADD, Op::SUB, Op::XOR,
                                             Op::OR, Op::AND, Op::SLT};
            prog.emit(kArith[rng_.below(6)], rd, rs1, rs2, 0);
        } else if (pick < 54) {
            prog.emit(Op::MUL, rd, rs1, rs2, 0);
        } else if (pick < 58) {
            // Computed-address store followed by a nearby fixed load:
            // memory-disambiguation speculation material.
            prog.emit(Op::MUL, t1, rs1, rs2, 0);
            prog.andi(t1, t1, 0x18);
            prog.add(t1, t1, t3);
            prog.sd(rs1, t1, 0);
            prog.ld(rd, t3, 8);
        } else if (pick < 70) {
            // Aligned scratch accesses only: the generator avoids
            // crashing faults (no access-fault/misalign windows).
            int64_t off = static_cast<int64_t>(8 * rng_.below(32));
            if (rng_.chance(1, 3))
                prog.sd(rs1, t3, off);
            else
                prog.ld(rd, t3, off);
        } else if (pick < 84) {
            // Forward conditional branch.
            Label target = prog.newLabel();
            static constexpr Op kBr[4] = {Op::BEQ, Op::BNE, Op::BLT,
                                          Op::BGEU};
            prog.branch(kBr[rng_.below(4)], rs1, rs2, target);
            unsigned skip = 1 + static_cast<unsigned>(rng_.below(4));
            for (unsigned k = 0; k < skip; ++k)
                prog.nop();
            prog.bind(target);
        } else if (pick < 90) {
            // Forward indirect jump (li is two instructions here).
            uint64_t target = prog.here() + 16 + 4 * rng_.below(4);
            prog.li(t5, target);
            prog.jalr(0, t5, 0);
            prog.padTo(target);
        } else if (pick < 95) {
            // Secret access: architecturally allowed in this phase;
            // leaves the secret value resting in the d-cache (the
            // false-positive source).
            prog.ld(rd, s1, static_cast<int64_t>(8 * rng_.below(4)));
        } else {
            // Unmapped access: page-fault window material.
            prog.ld(rd, s2, 0);
        }
    }
    prog.swapnext();
    program_len = prog.size();

    SwapSchedule schedule;
    SwapPacket packet;
    packet.label = "specdoctor_program";
    packet.kind = PacketKind::Transient;
    packet.instrs = prog.finish();
    schedule.packets.push_back(std::move(packet));
    schedule.transient_prot = swapmem::SecretProt::Open;
    return schedule;
}

bool
SpecDoctor::injectPayload(SwapSchedule &schedule, uint64_t window_pc,
                          size_t &begin, size_t &end)
{
    auto &instrs = schedule.packets[0].instrs;
    size_t index = (window_pc - swapmem::kSwapBase) / 4;
    if (index >= instrs.size())
        return false;
    // The payload: secret access + d-cache encode, blindly overwriting
    // whatever instructions occupied the squashed region (possibly
    // training or condition setup - the W1/W2 conflicts).
    ProgBuilder payload(window_pc);
    payload.ld(s0, s1, 0);
    payload.emit(Op::SRLI, t4, s0, 0,
                 static_cast<int64_t>(rng_.below(8)));
    payload.andi(t4, t4, 1);
    payload.slli(t4, t4, 6);
    payload.add(t4, t4, t2);
    payload.ld(s3, t4, 0);
    const auto &body = payload.finish();
    if (index + body.size() + 1 >= instrs.size())
        return false;
    for (size_t i = 0; i < body.size(); ++i)
        instrs[index + i] = body[i];
    begin = index;
    end = index + body.size();
    return true;
}

void
SpecDoctor::iterate()
{
    ++stats_.iterations;

    // Phase transient-trigger: random stimulus, look for a rollback.
    harness::StimulusData data;
    size_t program_len = 0;
    SwapSchedule schedule = generateProgram(data, program_len);
    DutResult first = sim_.runSingle(schedule, data, options_.sim);
    ++stats_.simulations;

    const SquashRec *window = nullptr;
    for (const auto &squash : first.trace.squashes) {
        if (squash.flushed == 0 || squash.transient_executed == 0)
            continue;
        // Needs room for the payload and a meaningful training prefix
        // (the preceding program is what trained the trigger).
        size_t index = (squash.spec_pc - swapmem::kSwapBase) / 4;
        if (index < 100 || index + 10 >= program_len)
            continue;
        window = &squash;
        break;
    }
    if (window == nullptr)
        return;

    // Windows containing backward jumps are discarded (paper §3.1).
    if (window->cause == SquashCause::ReturnMispredict ||
        window->spec_pc < window->pc) {
        ++stats_.discarded_backward;
        return;
    }

    ++stats_.rollbacks;
    TriggerKind kind = classify(*window);
    auto kind_index = static_cast<unsigned>(kind);
    ++stats_.window_count[kind_index];
    // Everything executed before the trigger is training overhead.
    stats_.window_to[kind_index] +=
        (window->pc - swapmem::kSwapBase) / 4;

    // Phase secret-transmit: overwrite the squashed region.
    size_t payload_begin = 0;
    size_t payload_end = 0;
    uint64_t window_pc = window->spec_pc;
    uint64_t trigger_pc = window->pc;
    SquashCause want_cause = window->cause;
    if (!injectPayload(schedule, window_pc, payload_begin, payload_end))
        return;

    DutResult retry = sim_.runSingle(schedule, data, options_.sim);
    ++stats_.simulations;
    bool still_triggered = false;
    for (const auto &squash : retry.trace.squashes) {
        if (squash.cause == want_cause && squash.pc == trigger_pc &&
            squash.transient_executed > 0) {
            still_triggered = true;
            break;
        }
    }
    if (!still_triggered) {
        // Payload replacement broke the training/trigger semantics.
        ++stats_.payload_conflicts;
        return;
    }

    // Detection: differential run, state hashes over the timing
    // components (including the data they hold).
    harness::SimOptions dual_options = options_.sim;
    dual_options.mode = ift::IftMode::Off;
    dual_options.state_hash = true;
    auto dual = sim_.runDual(schedule, data, dual_options);
    stats_.simulations += 2;
    if (replay_hook)
        replay_hook(schedule, data);
    if (dual.dut0.state_hash == dual.dut1.state_hash)
        return;

    ++stats_.candidates;
    SpecDoctorCandidate candidate;
    candidate.schedule = schedule;
    candidate.data = data;
    candidate.payload_begin = payload_begin;
    candidate.payload_end = payload_end;
    candidate.window = kind;
    candidates_.push_back(std::move(candidate));

    // Phase secret-receive: append random instructions and hope they
    // decode the secret into an architectural timing difference. The
    // decode runs compare cycles and commits, not hashes.
    dual_options.state_hash = false;
    for (unsigned attempt = 0; attempt < options_.decode_attempts;
         ++attempt) {
        SwapSchedule probe = schedule;
        auto &instrs = probe.packets[0].instrs;
        // Replace the trailing SWAPNEXT with a random decode block.
        instrs.pop_back();
        ProgBuilder decoder(swapmem::kSwapBase + 4 * instrs.size());
        for (unsigned i = 0; i < 8; ++i) {
            auto rd = static_cast<uint8_t>(5 + rng_.below(3));
            if (rng_.chance(1, 3)) {
                decoder.ld(rd, t3,
                           static_cast<int64_t>(8 * rng_.below(32)));
            } else {
                decoder.add(rd, rd, rd);
            }
        }
        decoder.swapnext();
        for (const auto &instr : decoder.finish())
            instrs.push_back(instr);

        auto decode_run = sim_.runDual(probe, data, dual_options);
        stats_.simulations += 2;
        // Confirmed only when the decode block's own timing differs.
        size_t commits0 = decode_run.dut0.trace.commits.size();
        size_t commits1 = decode_run.dut1.trace.commits.size();
        if (commits0 == commits1 &&
            decode_run.dut0.cycles != decode_run.dut1.cycles) {
            ++stats_.confirmed;
            if (stats_.first_confirm_iteration == 0)
                stats_.first_confirm_iteration = stats_.iterations;
            break;
        }
    }
}

void
SpecDoctor::run(uint64_t count)
{
    for (uint64_t i = 0; i < count; ++i)
        iterate();
}

} // namespace dejavuzz::baseline
