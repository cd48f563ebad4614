/**
 * @file
 * Golden architectural simulator (the paper's "ISA simulator").
 *
 * Executes the supported RV64 subset with precise architectural
 * semantics: no speculation, no microarchitectural state. It is the
 * architectural reference the out-of-order core is tested against
 * (the committed PC/op stream and register results of a program);
 * the fuzzer itself does not call it — stimulus operands come from
 * StimGen::fillOperands.
 */

#ifndef DEJAVUZZ_SIM_GOLDEN_HH
#define DEJAVUZZ_SIM_GOLDEN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/encoding.hh"
#include "isa/exceptions.hh"
#include "isa/instr.hh"
#include "swapmem/memory.hh"

namespace dejavuzz::sim {

/** Why a golden run stopped. */
enum class HaltReason : uint8_t {
    Running,     ///< step budget not exhausted, no terminal event
    SwapNext,    ///< committed a SWAPNEXT (sequence complete)
    Exception,   ///< took an architectural exception
    MaxSteps,    ///< ran out of the step budget
};

/** Record of one architecturally executed instruction. */
struct GoldenStep
{
    uint64_t pc = 0;
    isa::Instr instr;
    uint64_t next_pc = 0;
    bool branch_taken = false;       ///< meaningful for branches
    uint64_t mem_addr = 0;           ///< meaningful for loads/stores
    isa::ExcCause exc = isa::ExcCause::None;
};

/** Outcome of running a sequence on the golden model. */
struct GoldenRun
{
    HaltReason reason = HaltReason::Running;
    isa::ExcCause exc = isa::ExcCause::None;
    uint64_t final_pc = 0;
    uint64_t steps = 0;
    std::vector<GoldenStep> trace;
};

/** Architectural state + stepper. */
class Golden
{
  public:
    Golden() { reset(); }

    void reset();

    uint64_t pc = 0;
    std::array<uint64_t, 32> xregs{};
    std::array<uint64_t, 32> fregs{};
    isa::Priv priv = isa::Priv::U;

    /**
     * Execute one instruction from @p mem. Exceptions do not redirect
     * to a trap vector; they are reported in the step record (the swap
     * runtime treats any trap as sequence-complete).
     */
    GoldenStep step(const swapmem::Memory &mem,
                    swapmem::Memory *writable_mem = nullptr);

    /**
     * Run until a terminal event or @p max_steps, recording a trace.
     * Stores are applied when @p writable_mem is non-null.
     */
    GoldenRun run(const swapmem::Memory &mem, uint64_t max_steps,
                  swapmem::Memory *writable_mem = nullptr,
                  bool keep_trace = true);
};

} // namespace dejavuzz::sim

#endif // DEJAVUZZ_SIM_GOLDEN_HH
