#include "lowering/realize.h"

#include <algorithm>
#include <vector>

#include "support/error.h"

namespace calyx::lowering {

namespace {

const PortRef one1 = constant(1, 1);

/** Realizes one machine; holds the shared pieces (register, widths). */
class Realizer
{
  public:
    Realizer(FsmMachine &m, Component &comp, Context &ctx,
             const RealizeOptions &opts)
        : m(m), comp(comp), ctx(ctx), opts(opts), bases(m.codeBases())
    {}

    Symbol
    run()
    {
        Group &g = comp.addGroup(m.name());
        group = &g;
        // Every assignment but the done write is gated as it is added.
        if (opts.gate)
            goGate = Guard::fromPort(g.goHole());

        int64_t totalCodes = m.totalCodes();
        if (totalCodes == 1) {
            // Register-free machine: a single always-active state.
            const FsmState &s = m.state(m.entry());
            for (const auto &a : s.actions)
                addAction(a, Guard::trueGuard());
            if (s.accepting)
                g.add(g.doneHole(), one1);
            m.setEncoding(FsmEncoding::Binary);
        } else if (GuardPtr done = combinationalDone()) {
            // Two-state machine whose entry only ever steps to the
            // accepting state: completion is combinational (done = the
            // disjunction of the exit guards), so no state register is
            // needed — the seed's single-par/single-if group shape.
            const FsmState &s = m.state(m.entry());
            for (const auto &a : s.actions)
                addAction(a, Guard::trueGuard());
            g.add(g.doneHole(), one1, std::move(done));
            m.setEncoding(FsmEncoding::Binary);
        } else {
            encoding = opts.encoding;
            if (encoding == FsmEncoding::OneHot &&
                totalCodes > 64)
                encoding = FsmEncoding::Binary; // would overflow u64
            // Counter spans decode through exclusive upper-bound
            // windows (`fsm < off+len`), whose bound can reach one
            // past the state's last code — size the register for the
            // largest comparison constant actually emitted, not just
            // the largest stored code.
            uint64_t max_const =
                static_cast<uint64_t>(totalCodes - 1);
            for (uint32_t id = 0; id < m.states().size(); ++id) {
                const FsmState &s = m.state(id);
                if (s.span > 1)
                    max_const = std::max(
                        max_const, static_cast<uint64_t>(
                                       bases[id] + s.span));
            }
            width = encoding == FsmEncoding::Binary
                        ? fsmWidth(max_const)
                        : static_cast<Width>(totalCodes - 1);
            if (width < 1)
                width = 1;
            Cell &fsm =
                comp.addCell(comp.uniqueName("fsm"), "std_reg", {width},
                             ctx);
            fsmCell = fsm.name();
            fsmOut = cellPort(fsmCell, "out");
            fsmIn = cellPort(fsmCell, "in");
            fsmEn = cellPort(fsmCell, "write_en");

            for (uint32_t id = 0; id < m.states().size(); ++id)
                realizeState(id);
            m.setEncoding(encoding);
        }

        // Continuous self-reset in the accepting state (ungated: the
        // parent deasserts go during the done cycle, and the accepting
        // state is transient, so an always-armed reset is safe).
        if (!fsmCell.empty()) {
            for (uint32_t id = 0; id < m.states().size(); ++id) {
                const FsmState &s = m.state(id);
                if (!s.accepting)
                    continue;
                GuardPtr at = window(bases[id], s.span);
                comp.addContinuous(
                    {fsmIn, constant(0, width), at});
                comp.addContinuous({fsmEn, one1, at});
            }
        }

        m.setGroup(g.name());
        m.setRegisterCell(fsmCell);
        return g.name();
    }

  private:
    /**
     * Done guard for the register-free two-state shape: entry (span 1)
     * whose transitions all lead to an empty accepting state. Null when
     * the machine does not have that shape.
     */
    GuardPtr
    combinationalDone() const
    {
        if (m.states().size() != 2)
            return nullptr;
        uint32_t other = m.entry() == 0 ? 1 : 0;
        const FsmState &entry = m.state(m.entry());
        const FsmState &final = m.state(other);
        if (!final.accepting || !final.actions.empty() ||
            !final.transitions.empty() || final.span != 1)
            return nullptr;
        if (entry.span != 1 || !entry.combExit ||
            entry.transitions.empty())
            return nullptr;
        GuardPtr done = nullptr;
        for (const auto &t : entry.transitions) {
            if (t.target != other)
                return nullptr;
            done = done ? Guard::disj(std::move(done), t.guard) : t.guard;
        }
        return done;
    }

    /** Register word encoding a code slot. */
    uint64_t
    encode(int64_t code) const
    {
        return FsmMachine::encodeCode(encoding, code);
    }

    /** Guard: the machine is inside code window [off, off+len). */
    GuardPtr
    window(int64_t off, int64_t len) const
    {
        if (encoding == FsmEncoding::OneHot) {
            GuardPtr any = nullptr;
            for (int64_t c = off; c < off + len; ++c) {
                GuardPtr at = Guard::cmp(Guard::CmpOp::Eq, fsmOut,
                                         constant(encode(c), width));
                any = any ? Guard::disj(std::move(any), std::move(at))
                          : std::move(at);
            }
            return any;
        }
        if (len == 1)
            return Guard::cmp(Guard::CmpOp::Eq, fsmOut,
                              constant(off, width));
        GuardPtr hi = Guard::cmp(Guard::CmpOp::Lt, fsmOut,
                                 constant(off + len, width));
        if (off == 0)
            return hi;
        GuardPtr lo = Guard::cmp(Guard::CmpOp::Geq, fsmOut,
                                 constant(off, width));
        return Guard::conj(std::move(lo), std::move(hi));
    }

    /** Write the register: `fsm.in = value; fsm.write_en = 1` under `when`. */
    void
    writeState(uint64_t value, const GuardPtr &when)
    {
        group->add(fsmIn, constant(value, width), gated(when));
        group->add(fsmEn, one1, gated(when));
    }

    void
    realizeState(uint32_t id)
    {
        const FsmState &s = m.state(id);
        int64_t base = bases[id];

        for (const auto &a : s.actions) {
            int64_t len = a.length == FsmAction::kWholeSpan
                              ? s.span - a.offset
                              : a.length;
            if (len <= 0)
                continue;
            addAction(a, window(base + a.offset, len));
        }

        // Advance through a counter span.
        if (s.span > 1) {
            if (encoding == FsmEncoding::Binary) {
                ensureIncrementer();
                GuardPtr running = window(base, s.span - 1);
                group->add(fsmIn, cellPort(incrCell, "out"),
                           gated(running));
                group->add(fsmEn, one1, gated(running));
            } else {
                // One-hot: next-slot constants instead of an adder.
                for (int64_t c = base; c < base + s.span - 1; ++c)
                    writeState(encode(c + 1), window(c, 1));
            }
        }

        // Transitions fire on the last cycle of the span. Their guards
        // are pairwise disjoint by construction (see ir/fsm.h).
        GuardPtr at_last = window(base + s.span - 1, 1);
        for (const auto &t : s.transitions) {
            writeState(encode(bases[t.target]),
                       Guard::conj(at_last, t.guard));
        }

        if (s.accepting)
            group->add(group->doneHole(), one1, window(base, s.span));
    }

    /**
     * Emit one action: continuous actions bypass the group (ungated,
     * guard only — see ir/fsm.h); ordinary ones join the group under
     * the state-decode guard `active`.
     */
    /** Conjoin the group's go gate (a fold-away True when ungated). */
    GuardPtr
    gated(GuardPtr g) const
    {
        return Guard::conj(std::move(g), goGate);
    }

    void
    addAction(const FsmAction &a, GuardPtr active)
    {
        if (a.continuous)
            comp.addContinuous({a.dst, a.src, a.guard});
        else
            group->add(a.dst, a.src,
                       gated(Guard::conj(std::move(active), a.guard)));
    }

    void
    ensureIncrementer()
    {
        if (!incrCell.empty())
            return;
        Cell &incr = comp.addCell(comp.uniqueName("incr"), "std_add",
                                  {width}, ctx);
        incrCell = incr.name();
        group->add(cellPort(incrCell, "left"), fsmOut,
                   gated(Guard::trueGuard()));
        group->add(cellPort(incrCell, "right"), constant(1, width),
                   gated(Guard::trueGuard()));
    }

    FsmMachine &m;
    Component &comp;
    Context &ctx;
    const RealizeOptions &opts;
    std::vector<int64_t> bases; ///< first code of each state
    Group *group = nullptr;
    GuardPtr goGate = Guard::trueGuard();
    FsmEncoding encoding = FsmEncoding::Binary;
    Width width = 0;
    Symbol fsmCell, incrCell;
    PortRef fsmOut, fsmIn, fsmEn;
};

} // namespace

Symbol
realize(FsmMachine &m, Component &comp, Context &ctx,
        const RealizeOptions &opts)
{
    if (m.states().empty())
        fatal("fsm ", m.name(), ": cannot realize an empty machine");
    if (m.realized())
        fatal("fsm ", m.name(), ": already realized as group ",
              m.group());
    return Realizer(m, comp, ctx, opts).run();
}

} // namespace calyx::lowering
