#ifndef CALYX_IR_GROUP_H
#define CALYX_IR_GROUP_H

#include <functional>
#include <string>
#include <vector>

#include "ir/attributes.h"
#include "ir/guard.h"
#include "ir/port.h"

namespace calyx {

/**
 * A guarded, non-blocking assignment `dst = guard ? src` (paper §3.2).
 * `src` is a port or constant; all computation happens inside cells.
 */
struct Assignment
{
    PortRef dst;
    PortRef src;
    GuardPtr guard = Guard::trueGuard();

    Assignment() = default;
    Assignment(PortRef d, PortRef s, GuardPtr g = Guard::trueGuard())
        : dst(std::move(d)), src(std::move(s)), guard(std::move(g))
    {}

    /** Apply `fn` to every port read by this assignment (src + guard). */
    void reads(const std::function<void(const PortRef &)> &fn) const;

    /** Textual form `dst = guard ? src;`. */
    std::string str() const;
};

/**
 * A group: a named set of assignments encapsulating one action
 * (paper §3.3). Groups expose `go`/`done` interface holes; writes to
 * `name[done]` signal completion.
 */
class Group
{
  public:
    explicit Group(Symbol name) : nameVal(name) {}

    Symbol name() const { return nameVal; }

    /** Dense index of this group within its component. */
    uint32_t id() const { return idVal; }

    std::vector<Assignment> &assignments() { return assigns; }
    const std::vector<Assignment> &assignments() const { return assigns; }

    /** Append an assignment. */
    void add(Assignment a) { assigns.push_back(std::move(a)); }

    /** Shorthand: add `dst = src`. */
    void
    add(const PortRef &dst, const PortRef &src)
    {
        add(Assignment(dst, src));
    }

    /** Shorthand: add `dst = guard ? src`. */
    void
    add(const PortRef &dst, const PortRef &src, GuardPtr guard)
    {
        add(Assignment(dst, src, std::move(guard)));
    }

    /** The group's own `go` hole. */
    PortRef goHole() const;
    /** The group's own `done` hole. */
    PortRef doneHole() const;

    /** Whether any assignment writes this group's done hole. */
    bool hasDoneWrite() const;

    /** Latency in cycles if the "static" attribute is present. */
    std::optional<int64_t> staticLatency() const
    {
        return attributes.find(Attributes::staticAttr);
    }

    Attributes &attrs() { return attributes; }
    const Attributes &attrs() const { return attributes; }

  private:
    friend class Component; // sets idVal

    Symbol nameVal;
    uint32_t idVal = 0;
    std::vector<Assignment> assigns;
    Attributes attributes;
};

/** The interned `go` / `done` hole names (shared across the IR). */
Symbol goSymbol();
Symbol doneSymbol();

} // namespace calyx

#endif // CALYX_IR_GROUP_H
