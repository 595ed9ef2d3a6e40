#include "lowering/build.h"

#include <utility>

#include "analysis/latency.h"
#include "support/error.h"

namespace calyx::lowering {

namespace {

const PortRef one1 = constant(1, 1);
const PortRef zero1 = constant(0, 1);

/**
 * A group is combinational when its done hole is the constant 1 and it
 * only feeds combinational cells. Such groups (the `with` condition
 * groups of Dahlia-style frontends) are inlined into the evaluation
 * state rather than handshaken, mirroring Calyx's comb groups.
 */
bool
isCombGroup(const Group &g)
{
    for (const auto &a : g.assignments()) {
        if (a.dst == g.doneHole()) {
            if (!(a.guard->isTrue() && a.src.isConst() && a.src.value == 1))
                return false;
        }
    }
    return g.hasDoneWrite();
}

GuardPtr
doneOf(Symbol group)
{
    return Guard::fromPort(holePort(group, "done"));
}

} // namespace

FsmBuilder::FsmBuilder(Component &comp, Context &ctx,
                       const BuildOptions &opts, LowerIsland lower_island)
    : comp(comp), ctx(ctx), opts(opts), lowerIsland(std::move(lower_island))
{}

FsmMachinePtr
FsmBuilder::build(const Control &ctrl, Symbol name)
{
    auto machine = std::make_unique<FsmMachine>(name);
    m = machine.get();
    uint32_t final = m->addState("done");
    m->state(final).accepting = true;
    m->setEntry(compile(ctrl, final));
    m = nullptr;
    return machine;
}

FsmMachinePtr
FsmBuilder::buildStatic(const Control &ctrl, int64_t latency, Symbol name)
{
    if (latency < 1)
        fatal("static island ", name, ": latency ", latency);
    auto machine = std::make_unique<FsmMachine>(name);
    m = machine.get();
    uint32_t counter = m->addState("schedule", latency);
    scheduleStatic(ctrl, m->state(counter), 0, Guard::trueGuard());
    uint32_t final = m->addState("done");
    m->state(final).accepting = true;
    m->state(counter).transitions.push_back({Guard::trueGuard(), final});
    m->setEntry(counter);
    m = nullptr;
    return machine;
}

uint32_t
FsmBuilder::compile(const Control &ctrl, uint32_t cont)
{
    // Latency-sensitive fusion (paper §4.4): a subtree with known total
    // latency collapses into one counter state — no handshakes inside.
    // Bare enables keep their handshake (a single group gains nothing
    // from a counter wrapper), matching the static pass's maximality.
    if (opts.fuseStatic && ctrl.kind() != Control::Kind::Enable &&
        ctrl.kind() != Control::Kind::Empty) {
        if (auto latency = analysis::controlLatency(ctrl, comp)) {
            if (*latency == 0)
                return cont;
            uint32_t s = m->addState("static", *latency);
            scheduleStatic(ctrl, m->state(s), 0, Guard::trueGuard());
            m->state(s).transitions.push_back({Guard::trueGuard(), cont});
            return s;
        }
    }

    switch (ctrl.kind()) {
      case Control::Kind::Empty:
        return cont;
      case Control::Kind::Enable:
        return compileEnable(cast<Enable>(ctrl).group(), cont);
      case Control::Kind::Seq: {
        const auto &stmts = cast<Seq>(ctrl).stmts();
        uint32_t cur = cont;
        for (auto it = stmts.rbegin(); it != stmts.rend(); ++it)
            cur = compile(**it, cur);
        return cur;
      }
      case Control::Kind::Par:
        return compilePar(cast<Par>(ctrl), cont);
      case Control::Kind::If:
        return compileIf(cast<If>(ctrl), cont);
      case Control::Kind::While:
        return compileWhile(cast<While>(ctrl), cont);
    }
    panic("bad control kind");
}

void
FsmBuilder::addEnable(FsmState &state, Symbol group, GuardPtr extra)
{
    // Deasserting go during the child's done cycle keeps state elements
    // from committing twice (the write enable would otherwise still be
    // high while the parent observes done).
    state.actions.push_back({holePort(group, "go"), one1,
                             Guard::conj(std::move(extra),
                                         Guard::negate(doneOf(group)))});
}

uint32_t
FsmBuilder::compileEnable(Symbol group, uint32_t cont)
{
    uint32_t s = m->addState(group);
    addEnable(m->state(s), group, Guard::trueGuard());
    m->state(s).transitions.push_back({doneOf(group), cont});
    m->state(s).combExit = true; // exits on the child's done
    return s;
}

uint32_t
FsmBuilder::compilePar(const Par &par, uint32_t cont)
{
    std::vector<const Control *> children;
    for (const auto &c : par.stmts()) {
        if (c->kind() != Control::Kind::Empty)
            children.push_back(c.get());
    }
    if (children.empty())
        return cont;
    if (children.size() == 1)
        return compile(*children[0], cont);

    uint32_t s = m->addState("par");
    FsmState &state = m->state(s);
    GuardPtr all_done = Guard::trueGuard();
    std::vector<Symbol> pds;
    for (const Control *child : children) {
        // A plain enable runs its group directly; anything else forks a
        // sub-island with its own machine (a flat FSM cannot track
        // independently-timed parallel children).
        Symbol g = child->kind() == Control::Kind::Enable
                       ? cast<Enable>(*child).group()
                       : lowerIsland(*child);
        Cell &pd = comp.addCell(comp.uniqueName("pd"), "std_reg", {1}, ctx);
        m->addHelperRegister(pd.name());
        pds.push_back(pd.name());
        GuardPtr pd_out = Guard::fromPort(cellPort(pd.name(), "out"));
        // Run the child until its completion has been recorded.
        addEnable(state, g, Guard::negate(pd_out));
        // Latch the child's done pulse. The !pd guard keeps the latch
        // disjoint from the clear below even for children whose done is
        // constantly high (e.g. empty islands).
        GuardPtr latch = Guard::conj(doneOf(g), Guard::negate(pd_out));
        state.actions.push_back({cellPort(pd.name(), "in"), one1, latch});
        state.actions.push_back(
            {cellPort(pd.name(), "write_en"), one1, latch});
        all_done = Guard::conj(all_done, pd_out);
    }
    // Clear the completion bits in the exit cycle so a par nested in a
    // loop re-arms with fresh bits on re-entry. The clears must be
    // continuous (ungated, no state decode): when the par state is the
    // whole island, the parent deasserts go in the very cycle all bits
    // are set, so a gated clear would never fire and the second
    // iteration would complete instantly. All-bits-set is transient and
    // unique to this state's exit, so an always-armed clear is safe.
    for (Symbol pd : pds) {
        state.actions.push_back(
            {cellPort(pd, "in"), zero1, all_done, 0,
             FsmAction::kWholeSpan, /*continuous=*/true});
        state.actions.push_back(
            {cellPort(pd, "write_en"), one1, all_done, 0,
             FsmAction::kWholeSpan, /*continuous=*/true});
    }
    state.transitions.push_back({all_done, cont});
    state.combExit = true; // exits on the latched completion bits
    return s;
}

GuardPtr
FsmBuilder::buildCond(FsmState &state, Symbol cond_group)
{
    if (cond_group.empty()) {
        // The port is continuously driven; it is valid right away.
        return Guard::trueGuard();
    }
    const Group &cond = comp.group(cond_group);
    if (isCombGroup(cond)) {
        // Inline the combinational condition into the evaluation state;
        // it completes in the same cycle. GoInsertion already gated
        // these with cond[go], which will never be driven once inlined;
        // drop that gate (the state window gates them instead).
        for (const auto &a : cond.assignments()) {
            if (a.dst == cond.doneHole())
                continue;
            GuardPtr guard = Guard::substPort(a.guard, cond.goHole(),
                                              Guard::trueGuard());
            state.actions.push_back({a.dst, a.src, guard});
        }
        inlinedGroups.insert(cond_group);
        return Guard::trueGuard();
    }
    // Handshaken condition: enable the group, decide when it is done.
    // The transition reads the condition port in the done cycle, so the
    // port must be register-backed to survive the group's deassertion —
    // the same contract the seed's cs-latch imposed.
    addEnable(state, cond_group, Guard::trueGuard());
    return doneOf(cond_group);
}

uint32_t
FsmBuilder::compileIf(const If &stmt, uint32_t cont)
{
    uint32_t s = m->addState("if");
    GuardPtr ready = buildCond(m->state(s), stmt.condGroup());
    GuardPtr port = Guard::fromPort(stmt.condPort());
    uint32_t t = stmt.trueBranch().kind() == Control::Kind::Empty
                     ? cont
                     : compile(stmt.trueBranch(), cont);
    uint32_t f = stmt.falseBranch().kind() == Control::Kind::Empty
                     ? cont
                     : compile(stmt.falseBranch(), cont);
    FsmState &state = m->state(s);
    state.transitions.push_back({Guard::conj(ready, port), t});
    state.transitions.push_back(
        {Guard::conj(ready, Guard::negate(port)), f});
    // A handshaken condition's exit is its group's done; an inlined
    // condition decides in its first cycle, which is not a completion
    // signal (the inlined assignments still need the cycle to run).
    state.combExit = !ready->isTrue();
    return s;
}

uint32_t
FsmBuilder::compileWhile(const While &stmt, uint32_t cont)
{
    // The evaluation state is both the loop entry and the back-edge
    // target, so it must exist before the body is compiled.
    uint32_t s = m->addState("while");
    GuardPtr ready = buildCond(m->state(s), stmt.condGroup());
    GuardPtr port = Guard::fromPort(stmt.condPort());
    uint32_t body = stmt.body().kind() == Control::Kind::Empty
                        ? s // empty body: re-evaluate next cycle
                        : compile(stmt.body(), s);
    FsmState &state = m->state(s);
    state.transitions.push_back({Guard::conj(ready, port), body});
    state.transitions.push_back(
        {Guard::conj(ready, Guard::negate(port)), cont});
    return s;
}

void
FsmBuilder::scheduleStatic(const Control &ctrl, FsmState &state,
                           int64_t off, const GuardPtr &path)
{
    switch (ctrl.kind()) {
      case Control::Kind::Empty:
        return;
      case Control::Kind::Enable: {
        Symbol name = cast<Enable>(ctrl).group();
        int64_t latency = *comp.group(name).staticLatency();
        if (latency == 0)
            return;
        state.actions.push_back(
            {holePort(name, "go"), one1, path, off, latency});
        return;
      }
      case Control::Kind::Seq: {
        for (const auto &c : cast<Seq>(ctrl).stmts()) {
            scheduleStatic(*c, state, off, path);
            off += *analysis::controlLatency(*c, comp);
        }
        return;
      }
      case Control::Kind::Par:
        for (const auto &c : cast<Par>(ctrl).stmts())
            scheduleStatic(*c, state, off, path);
        return;
      case Control::Kind::If: {
        const auto &i = cast<If>(ctrl);
        int64_t cond_latency = 1;
        if (!i.condGroup().empty()) {
            cond_latency = *comp.group(i.condGroup()).staticLatency();
            state.actions.push_back({holePort(i.condGroup(), "go"), one1,
                                     path, off, cond_latency});
        }
        // Latch the condition on the last cycle of its window; the
        // saved bit gates both branch schedules for their whole span.
        Cell &cs =
            comp.addCell(comp.uniqueName("cs"), "std_reg", {1}, ctx);
        m->addHelperRegister(cs.name());
        state.actions.push_back({cellPort(cs.name(), "in"), i.condPort(),
                                 path, off + cond_latency - 1, 1});
        state.actions.push_back({cellPort(cs.name(), "write_en"), one1,
                                 path, off + cond_latency - 1, 1});
        GuardPtr cs_out = Guard::fromPort(cellPort(cs.name(), "out"));
        scheduleStatic(i.trueBranch(), state, off + cond_latency,
                       Guard::conj(path, cs_out));
        scheduleStatic(i.falseBranch(), state, off + cond_latency,
                       Guard::conj(path, Guard::negate(cs_out)));
        return;
      }
      case Control::Kind::While:
        panic("while inside a static region");
    }
}

} // namespace calyx::lowering
