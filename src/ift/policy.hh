/**
 * @file
 * Control-flow taint propagation policies and the differential
 * context that distinguishes CellIFT from diffIFT.
 *
 * CellIFT (paper Policy 2) propagates control taint whenever the
 * select/enable/address of a control cell is tainted. diffIFT
 * (paper Table 1) additionally requires the signal to *differ* between
 * the two DUT instances running with different secrets: if no secret
 * can flip the signal, a tainted select cannot actually choose an
 * alternative path and is ignored. The diffIFT_FN mode models the
 * paper's worst-case false-negative study (identical secrets on both
 * instances => every diff signal is low => control taints never fire).
 *
 * Cross-instance comparison works through a per-cycle ControlTrace:
 * every control-cell evaluation records its (signal-id, value) pair in
 * program order. The sibling instance's trace for the same cycle is
 * replayed positionally; a value mismatch - or a structural mismatch,
 * which means the pipelines diverged - raises the diff bit.
 */

#ifndef DEJAVUZZ_IFT_POLICY_HH
#define DEJAVUZZ_IFT_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ift/taint.hh"
#include "util/logging.hh"

namespace dejavuzz::ift {

/** Which instrumentation is active on a DUT pair. */
enum class IftMode : uint8_t {
    /** No control taint, and DualSim gives an Off lane an untainted
     *  secret, so its shadow state stays clean: a value lane (the
     *  differential sibling, and the "Base" rows of Table 4). */
    Off,
    CellIFT,   ///< Policy 2 control taints: select tainted => propagate
    DiffIFT,   ///< Table 1: select tainted AND cross-instance diff
    DiffIFTFN, ///< diff forced low (paper's false-negative worst case)
};

const char *iftModeName(IftMode mode);

/** One recorded control-signal evaluation. */
struct SigRec
{
    uint32_t sig;
    uint64_t value;
};

/** Per-cycle, per-instance control-signal trace, in program order. */
class ControlTrace
{
  public:
    void clear() { recs_.clear(); }
    void
    record(uint32_t sig, uint64_t value)
    {
        recs_.push_back(SigRec{sig, value});
    }
    size_t size() const { return recs_.size(); }
    SigRec at(size_t index) const { return recs_[index]; }

  private:
    std::vector<SigRec> recs_;
};

/**
 * Per-tick taint context handed to every module. Owns the gating
 * decision for control-taint propagation and records this instance's
 * control trace for the sibling's benefit.
 */
class TaintCtx
{
  public:
    TaintCtx() = default;

    /** Arm the context for one tick. @p other, the sibling's trace
     *  for the same cycle, is required under DiffIFT and ignored
     *  otherwise; @p mine may be null (nothing recorded). */
    void
    begin(IftMode mode, ControlTrace *mine, const ControlTrace *other)
    {
        dv_assert(mode != IftMode::DiffIFT || other != nullptr);
        mode_ = mode;
        mine_ = mine;
        other_ = other;
        cursor_ = 0;
    }

    IftMode mode() const { return mode_; }
    bool off() const { return mode_ == IftMode::Off; }

    /**
     * Record a control-signal evaluation and return the control-taint
     * gate: true when a tainted select is allowed to propagate control
     * taint under the active mode.
     */
    bool
    gate(uint32_t sig, uint64_t value)
    {
        if (mine_ != nullptr)
            mine_->record(sig, value);
        switch (mode_) {
          case IftMode::Off:
          case IftMode::DiffIFTFN:
            return false;
          case IftMode::CellIFT:
            return true;
          case IftMode::DiffIFT: {
            if (cursor_ >= other_->size()) {
                ++cursor_;
                return true; // structural divergence
            }
            SigRec rec = other_->at(cursor_++);
            if (rec.sig != sig)
                return true; // structural divergence
            return rec.value != value;
          }
        }
        return false;
    }

    // --- control cells (paper Table 1) --------------------------------

    /** Multiplexer: out = sel ? b : a. */
    TV
    mux(uint32_t sig, TV sel, TV a, TV b)
    {
        bool take_b = (sel.v & 1) != 0;
        TV out{take_b ? b.v : a.v, take_b ? b.t : a.t};
        bool sel_tainted = (sel.t & 1) != 0;
        bool g = gate(sig, sel.v & 1);
        if (sel_tainted && g)
            out.t |= (a.v ^ b.v) | a.t | b.t;
        return out;
    }

    /** Comparison cell (eq). Output is a 1-bit TV. */
    TV
    eq(uint32_t sig, TV a, TV b)
    {
        uint64_t out = (a.v == b.v) ? 1 : 0;
        bool in_tainted = (a.t | b.t) != 0;
        bool g = gate(sig, out);
        uint64_t taint = 0;
        switch (mode_) {
          case IftMode::Off:
            break;
          case IftMode::CellIFT:
            taint = in_tainted ? 1 : 0;
            break;
          case IftMode::DiffIFT:
          case IftMode::DiffIFTFN:
            // Table 1: O_diff & |(A_t | B_t)
            taint = (in_tainted && g) ? 1 : 0;
            break;
        }
        return TV{out, taint};
    }

    /** Ordered comparison (lt/ge and friends) follows the eq policy. */
    TV
    cmp(uint32_t sig, uint64_t out, TV a, TV b)
    {
        bool in_tainted = (a.t | b.t) != 0;
        bool g = gate(sig, out);
        uint64_t taint = 0;
        switch (mode_) {
          case IftMode::Off:
            break;
          case IftMode::CellIFT:
            taint = in_tainted ? 1 : 0;
            break;
          case IftMode::DiffIFT:
          case IftMode::DiffIFTFN:
            taint = (in_tainted && g) ? 1 : 0;
            break;
        }
        return TV{out & 1, taint};
    }

    /**
     * Register with enable: q' = en ? d : q, with Table 1 control
     * taint when the enable is tainted and differs.
     */
    void
    regEn(uint32_t sig, TV en, TV d, TV &q)
    {
        bool enabled = (en.v & 1) != 0;
        TV next{enabled ? d.v : q.v, enabled ? d.t : q.t};
        bool en_tainted = (en.t & 1) != 0;
        bool g = gate(sig, en.v & 1);
        if (en_tainted && g)
            next.t |= (d.v ^ q.v) | d.t | q.t;
        q = next;
    }

    /**
     * Memory-read address gate: true when the (possibly tainted)
     * address must conservatively taint the whole read value.
     */
    bool
    memReadGate(uint32_t sig, TV addr)
    {
        bool g = gate(sig, addr.v);
        return addr.tainted() && g;
    }

    /**
     * Memory-write gate: true when a tainted write-enable or a tainted
     * address (with the write firing) must taint the whole array.
     */
    bool
    memWriteGate(uint32_t sig_en, uint32_t sig_addr, TV wen, TV addr)
    {
        bool g_en = gate(sig_en, wen.v & 1);
        bool g_addr = gate(sig_addr, addr.v);
        bool en_ctl = (wen.t & 1) != 0 && g_en;
        bool addr_ctl = addr.tainted() && (wen.v & 1) != 0 && g_addr;
        return en_ctl || addr_ctl;
    }

  private:
    IftMode mode_ = IftMode::Off;
    ControlTrace *mine_ = nullptr;
    const ControlTrace *other_ = nullptr;
    size_t cursor_ = 0;
};

/**
 * Stable control-signal identifiers. Composed as
 * (module id << 16) | site so both DUT instances agree on naming.
 */
constexpr uint32_t
sigId(uint16_t module_id, uint16_t site)
{
    return (static_cast<uint32_t>(module_id) << 16) | site;
}

} // namespace dejavuzz::ift

#endif // DEJAVUZZ_IFT_POLICY_HH
