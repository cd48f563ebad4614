/**
 * @file
 * Swap packets and the swap schedule (paper §3.2, §4.1).
 *
 * A packet is one instruction sequence that the swap runtime loads
 * into the swappable region. The schedule orders packets: window
 * training first, then trigger training, then - after the secret's
 * permissions are updated - the transient packet. The runtime swaps
 * to the next packet whenever the DUT commits a SWAPNEXT or takes an
 * architectural trap (the paper's trap-handler-driven swap).
 */

#ifndef DEJAVUZZ_SWAPMEM_PACKET_HH
#define DEJAVUZZ_SWAPMEM_PACKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/encoding.hh"
#include "isa/instr.hh"
#include "swapmem/layout.hh"
#include "swapmem/memory.hh"

namespace dejavuzz::swapmem {

/** Role of a packet inside a schedule. */
enum class PacketKind : uint8_t {
    TriggerTrain, ///< trains the component that opens the window
    WindowTrain,  ///< warms memory state used inside the window
    Transient,    ///< the transient packet (trigger + window payload)
};

const char *packetKindName(PacketKind kind);

/** One swappable instruction sequence. */
struct SwapPacket
{
    std::string label;
    PacketKind kind = PacketKind::TriggerTrain;
    std::vector<isa::Instr> instrs;  ///< placed at kSwapBase
    uint64_t entry = kSwapBase;      ///< PC the runtime jumps to

    /** Number of instructions (training overhead accounting). */
    size_t size() const { return instrs.size(); }

    /** Non-nop instructions (effective training overhead). */
    size_t
    effectiveSize() const
    {
        size_t n = 0;
        for (const auto &instr : instrs) {
            bool is_nop = instr.op == isa::Op::ADDI && instr.rd == 0 &&
                          instr.rs1 == 0 && instr.imm == 0;
            n += !is_nop;
        }
        return n;
    }
};

/** Ordered packet list plus the permission-update point. */
struct SwapSchedule
{
    std::vector<SwapPacket> packets;
    /** Protection applied to the secret before the transient packet. */
    SecretProt transient_prot = SecretProt::Open;
    /** Secret placed in a supervisor page for the transient packet. */
    bool victim_supervisor = false;
    /** Swap (mutate) the secret bytes when loading the transient
     *  packet - stale cached copies become the double-fetch hazard. */
    bool double_fetch = false;

    /** Index of the transient packet (asserts there is exactly one). */
    size_t transientIndex() const;

    /** Sum of training-packet instruction counts (paper's TO). */
    size_t trainingOverhead() const;
    /** Sum of non-nop training instructions (paper's ETO). */
    size_t effectiveTrainingOverhead() const;

    /** Remove the training packet at @p packet_index (reduction step). */
    SwapSchedule without(size_t packet_index) const;
};

/**
 * Store the instructions of @p packet from index @p begin to its end
 * where loading the packet places them, exactly as the load stores
 * them: untainted, unchanged words skipped.
 */
void loadPacketWords(Memory &mem, const SwapPacket &packet, size_t begin);

/**
 * The swap runtime: the pre-silicon analogue of the paper's ~500 LoC
 * DPI-C firmware. Owns the schedule cursor for one DUT instance and
 * performs packet loads into the swappable region.
 */
class SwapRuntime
{
  public:
    explicit SwapRuntime(const SwapSchedule &schedule)
        : schedule_(&schedule)
    {}

    /** Load packet 0; returns its entry PC. */
    uint64_t start(Memory &mem);

    bool done() const { return cursor_ >= schedule_->packets.size(); }
    size_t cursor() const { return cursor_; }

    /**
     * Resume a started run mid-schedule without touching memory: the
     * caller restored a memory snapshot taken at this cursor position
     * on a schedule that differs at most in the transient packet's
     * instructions (DualSim's transient-boundary resume).
     */
    void
    resumeAt(size_t cursor)
    {
        cursor_ = cursor;
        started_ = true;
    }

    /**
     * Reload the current packet into @p mem — needed after resumeAt
     * when this schedule's current packet differs from the one the
     * snapshot was taken under (another transient packet).
     */
    void
    reload(Memory &mem)
    {
        loadCurrent(mem);
    }

    /** Currently-loaded packet (valid when !done()). */
    const SwapPacket &current() const;

    /**
     * Advance to the next packet: flush + reload the swappable region,
     * update secret permissions when crossing into the transient
     * packet. Returns the new entry PC, or 0 when the schedule ended.
     */
    uint64_t advance(Memory &mem);

  private:
    void loadCurrent(Memory &mem);

    const SwapSchedule *schedule_;
    size_t cursor_ = 0;
    bool started_ = false;
};

} // namespace dejavuzz::swapmem

#endif // DEJAVUZZ_SWAPMEM_PACKET_HH
