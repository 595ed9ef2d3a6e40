#ifndef CALYX_IR_FSM_H
#define CALYX_IR_FSM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/guard.h"
#include "ir/port.h"
#include "support/symbol.h"

namespace calyx {

class Component;

/**
 * Explicit machine-level IR for compiled control (paper §4.2-4.4).
 *
 * CompileControl and StaticPass used to conjure guards, registers, and
 * group assignments directly out of the control tree, one register per
 * `seq` node, with nothing inspectable in between. An FsmMachine is the
 * missing middle: a schedule automaton with named states, guarded
 * transitions, per-state latency spans, and port-drive actions. The
 * lowering layer (src/lowering/) builds one machine per dynamic control
 * island, optimizes it at the state level, and only then realizes it as
 * structure (a state register, comparators, and group enables).
 *
 * Timing model. While the machine's realizing group is enabled, exactly
 * one state is active per cycle. A state with span() == 1 occupies one
 * cycle; a counter state with span() == L occupies L consecutive cycles
 * (a statically-timed subtree fused into one state, §4.4), advancing
 * implicitly through its span. On the last cycle of a state's span its
 * transitions are evaluated; the guards of a state's transitions must
 * be pairwise disjoint (hardware evaluates them simultaneously — there
 * is no first-match-wins priority encoder). Reaching the accepting
 * state asserts the group's done hole; realization arms a continuous
 * self-reset there so the machine re-runs inside loops.
 *
 * Machines are owned by their Component (Component::addFsm) and survive
 * realization as inspection metadata: `futil --dump-fsm`, the dot
 * backend's FSM view, and --emit-stats all read them back.
 */
struct FsmTransition
{
    GuardPtr guard = Guard::trueGuard();
    uint32_t target = 0;
};

/**
 * A guarded port drive, active while the owning state is active.
 * `offset`/`length` select a cycle window inside a counter state's
 * span: the action fires during span cycles [offset, offset+length).
 * kWholeSpan covers the state's entire span (the common case for
 * span-1 states).
 *
 * A `continuous` action is realized as an ungated continuous
 * assignment with no state decode: its guard alone describes when it
 * fires. This is how completion bits are cleared on exit — the parent
 * deasserts the island's go during its done cycle, so a go-gated clear
 * would never fire (paper §4.3's reset argument).
 */
struct FsmAction
{
    static constexpr int64_t kWholeSpan = -1;

    PortRef dst;
    PortRef src;
    GuardPtr guard = Guard::trueGuard();
    int64_t offset = 0;
    int64_t length = kWholeSpan;
    bool continuous = false;
};

struct FsmState
{
    Symbol name;
    /** Cycles this state occupies (> 1 for fused static subtrees). */
    int64_t span = 1;
    /** The accepting state drives the realizing group's done hole. */
    bool accepting = false;
    /**
     * Set by the builder when the state's transition guards are
     * completion signals — false until the state's work has finished
     * (a child's done hole, the conjunction of par completion bits).
     * Only such states may be realized with a combinational done (the
     * register-free two-state specialization): exposing a guard that
     * can be true before the work completes — e.g. the unconditional
     * exit of a counter state — as the island's done would gate the
     * island off before it ever ran.
     */
    bool combExit = false;
    std::vector<FsmAction> actions;
    std::vector<FsmTransition> transitions;
};

/** State-register encoding selected at realization. */
enum class FsmEncoding { Binary, OneHot };

const char *fsmEncodingName(FsmEncoding e);

class FsmMachine
{
  public:
    explicit FsmMachine(Symbol name) : nameVal(name) {}

    Symbol name() const { return nameVal; }

    /** Append a state; returns its id (index into states()). */
    uint32_t addState(Symbol name, int64_t span = 1);

    FsmState &state(uint32_t id) { return stateList[id]; }
    const FsmState &state(uint32_t id) const { return stateList[id]; }
    std::vector<FsmState> &states() { return stateList; }
    const std::vector<FsmState> &states() const { return stateList; }

    uint32_t entry() const { return entryVal; }
    void setEntry(uint32_t s) { entryVal = s; }

    /** Total code-space size: the sum of state spans. */
    int64_t totalCodes() const;
    int64_t transitionCount() const;
    /** Number of states with span > 1 (fused static subtrees). */
    int64_t counterStates() const;

    /**
     * The code layout realization gives the state register: the first
     * code of each state. The entry state owns [0, span), since the
     * register resets to zero and the accepting state's self-reset
     * loads zero; the other states follow in id order, each owning
     * `span` consecutive codes of the totalCodes() in all.
     */
    std::vector<int64_t> codeBases() const;
    /** The state owning each code of that layout, indexed by code. */
    std::vector<uint32_t> codeStates() const;

    /** Register word holding code `code` under `e`. Binary stores the
     * code; one-hot stores code 0 as the all-zeros word (the register's
     * reset value) and code k as 1 << (k-1). */
    static uint64_t encodeCode(FsmEncoding e, int64_t code);
    /** The inverse of encodeCode: the code held by register word
     * `word`, or -1 when `word` holds none (several one-hot bits). */
    static int64_t decodeWord(FsmEncoding e, uint64_t word);

    // --- Realization record (filled in by lowering::realize) -------------
    bool realized() const { return !groupVal.empty(); }
    Symbol group() const { return groupVal; }
    void setGroup(Symbol g) { groupVal = g; }
    /** The state register cell, or the empty symbol for register-free
     * (single-state or combinationally-completing) machines. */
    Symbol registerCell() const { return registerVal; }
    void setRegisterCell(Symbol c) { registerVal = c; }

    /** Helper state bits minted while building (par completion bits,
     * static-if condition latches). */
    const std::vector<Symbol> &helperRegisters() const
    {
        return helperVal;
    }
    void addHelperRegister(Symbol c) { helperVal.push_back(c); }
    FsmEncoding encoding() const { return encodingVal; }
    void setEncoding(FsmEncoding e) { encodingVal = e; }

    /**
     * Rebuild the state list keeping only states with keep[id] set,
     * remapping entry and transition targets. Dropping a state that is
     * still a transition target of a kept state is a programming error.
     */
    void compact(const std::vector<bool> &keep);

    /** Multi-line textual dump (futil --dump-fsm, tests). */
    std::string str() const;

  private:
    Symbol nameVal;
    std::vector<FsmState> stateList;
    uint32_t entryVal = 0;
    Symbol groupVal;
    Symbol registerVal;
    std::vector<Symbol> helperVal;
    FsmEncoding encodingVal = FsmEncoding::Binary;
};

using FsmMachinePtr = std::unique_ptr<FsmMachine>;

/**
 * Aggregate FSM statistics for one component's machines, reported by
 * `futil --emit-stats` and bench/perf.cc.
 */
struct FsmStats
{
    int machines = 0;
    int states = 0;
    int64_t codes = 0;
    int64_t transitions = 0;
    int64_t counterStates = 0;
    /** Machines realized with a state register. */
    int registers = 0;
    /** Helper state bits (par completion bits, static-if latches). */
    int helperRegisters = 0;
    /** registers + helperRegisters: everything control lowering minted
     * to hold schedule state. */
    int controlRegisters = 0;
    /** Control registers the seed's bottom-up lowering would have
     * allocated for the same control program: one FSM counter per
     * multi-child seq and static island, cc+cs latches per if/while,
     * one completion bit per par child. */
    int seedRegisters = 0;
    /** Wall time spent in build/optimize/realize for this component. */
    double loweringSeconds = 0;
};

FsmStats fsmStats(const Component &comp);

} // namespace calyx

#endif // CALYX_IR_FSM_H
