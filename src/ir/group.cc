#include "ir/group.h"

namespace calyx {

Symbol
goSymbol()
{
    static const Symbol s("go");
    return s;
}

Symbol
doneSymbol()
{
    static const Symbol s("done");
    return s;
}

void
Assignment::reads(const std::function<void(const PortRef &)> &fn) const
{
    if (!src.isConst())
        fn(src);
    guard->ports(fn);
}

std::string
Assignment::str() const
{
    if (guard->isTrue())
        return dst.str() + " = " + src.str() + ";";
    return dst.str() + " = " + guard->str() + " ? " + src.str() + ";";
}

PortRef
Group::goHole() const
{
    return holePort(nameVal, goSymbol());
}

PortRef
Group::doneHole() const
{
    return holePort(nameVal, doneSymbol());
}

bool
Group::hasDoneWrite() const
{
    for (const auto &a : assigns) {
        if (a.dst.isHole() && a.dst.parent == nameVal &&
            a.dst.port == doneSymbol())
            return true;
    }
    return false;
}

} // namespace calyx
