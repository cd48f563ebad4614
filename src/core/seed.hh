/**
 * @file
 * Seeds and test cases for the DejaVuzz pipeline (paper §4, Fig. 5).
 *
 * A seed carries the trigger-type choice, the window configuration
 * and the entropy for the random instruction generator; everything a
 * test case contains is reproducible from its seed.
 */

#ifndef DEJAVUZZ_CORE_SEED_HH
#define DEJAVUZZ_CORE_SEED_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "harness/stimulus.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/tracelog.hh"

namespace dejavuzz::core {

/** Transient-window trigger classes (Table 3 columns). */
enum class TriggerKind : uint8_t {
    LoadAccessFault,    ///< PMP-denied access
    LoadPageFault,      ///< PTE-denied / unmapped access
    LoadMisalign,       ///< misaligned access
    IllegalInstr,       ///< undecodable instruction
    MemDisambiguation,  ///< store->load ordering violation
    BranchMispredict,
    IndirectMispredict,
    ReturnMispredict,
    PrivEcall,          ///< ecall trap shadow (U->M boundary)
    PrivReturn,         ///< mret/sret commit flush (M->U boundary)
    kCount,
};

constexpr unsigned kTriggerKinds =
    static_cast<unsigned>(TriggerKind::kCount);

/** Number of trigger kinds before the privilege-transition pair was
 *  added: the width of the legacy same-domain trigger mask. */
constexpr unsigned kLegacyTriggerKinds = 8;

constexpr uint32_t
triggerBit(TriggerKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** The implicit single-model baseline's trigger set. */
constexpr uint32_t kLegacyTriggerMask =
    (1u << kLegacyTriggerKinds) - 1;
constexpr uint32_t kAllTriggerMask = (1u << kTriggerKinds) - 1;

const char *triggerKindName(TriggerKind kind);

/** Whether a trigger kind is an architectural-exception window. */
bool isExceptionTrigger(TriggerKind kind);

/** Expected squash cause for each trigger kind. */
uarch::SquashCause expectedCause(TriggerKind kind);

/**
 * Attack-model templates (SpecDoctor-style attacker/victim scenario
 * classes the stimulus generator instantiates into concrete windows).
 */
enum class AttackTemplate : uint8_t {
    SameDomain,         ///< the original implicit single model
    MeltdownSupervisor, ///< U attacker, victim data in a supervisor page
    PrivTransition,     ///< ecall/mret boundary windows (U<->M)
    DoubleFetch,        ///< swap-mechanism TOCTOU on the secret
    kCount,
};

constexpr unsigned kAttackTemplates =
    static_cast<unsigned>(AttackTemplate::kCount);

const char *attackTemplateName(AttackTemplate tmpl);

constexpr uint32_t
modelBit(AttackTemplate tmpl)
{
    return 1u << static_cast<unsigned>(tmpl);
}

/** The implicit single-model baseline draws only SameDomain. */
constexpr uint32_t kLegacyModelMask =
    modelBit(AttackTemplate::SameDomain);
constexpr uint32_t kAllModelMask = (1u << kAttackTemplates) - 1;

/** Triggers a template may instantiate (generator compatibility). */
uint32_t templateTriggerMask(AttackTemplate tmpl);

/** Parse an attackTemplateName() string back into its template. */
bool parseAttackTemplateName(std::string_view name,
                             AttackTemplate &out);

/** Comma-joined attackTemplateName()s of the set bits of @p mask. */
std::string modelMaskNames(uint32_t mask);

/**
 * The attacker/victim scenario descriptor a seed is drawn under. The
 * concrete schedule fields (swapmem privilege placement, double-fetch
 * swap) are derived from it by the generator, so a test case remains
 * reproducible from its seed alone.
 */
struct AttackModel
{
    AttackTemplate tmpl = AttackTemplate::SameDomain;
    isa::Priv attacker = isa::Priv::U;
    isa::Priv victim = isa::Priv::U;
    /** Victim data placed in a supervisor page of the swap memory. */
    bool supervisor_victim = false;
};

/** Window payload configuration (Phase 2). */
struct WindowConfig
{
    bool meltdown = false;   ///< secret protected in transient packet
    swapmem::SecretProt prot = swapmem::SecretProt::Open;
    bool mask_high_bits = false; ///< MDS-style address mask (B1 bait)
    unsigned encode_ops = 4;     ///< size of the secret encoding block
    uint64_t encode_entropy = 0; ///< generator entropy for the encode
};

/** A fuzzing seed. */
struct Seed
{
    uint64_t id = 0;
    TriggerKind trigger = TriggerKind::BranchMispredict;
    uint64_t entropy = 0;
    WindowConfig window;
    AttackModel model;
};

/** A fully-generated test case. */
struct TestCase
{
    Seed seed;
    swapmem::SwapSchedule schedule;
    harness::StimulusData data;

    uint64_t trigger_addr = 0; ///< address of the trigger instruction
    uint64_t window_addr = 0;  ///< first address of the window body

    /** Transient-packet instruction index range of the window body. */
    size_t window_begin = 0;
    size_t window_end = 0;
    /** Index sub-range holding the secret encoding block. */
    size_t encode_begin = 0;
    size_t encode_end = 0;

    bool has_window_payload = false; ///< Phase 2 completed the window

    /** Index of the window body's first word: a window mutation (bar
     *  a mask_high_bits toggle) and sanitizing rewrite only words from
     *  here to the transient packet's end, its *mutable tail*. */
    size_t
    mutableTail() const { return (window_addr - swapmem::kSwapBase) / 4; }
};

} // namespace dejavuzz::core

#endif // DEJAVUZZ_CORE_SEED_HH
