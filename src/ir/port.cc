#include "ir/port.h"

#include <tuple>

#include "support/error.h"

namespace calyx {

bool
PortRef::operator<(const PortRef &other) const
{
    return std::tie(kind, parent, port, value, width) <
           std::tie(other.kind, other.parent, other.port, other.value,
                    other.width);
}

std::string
PortRef::str() const
{
    switch (kind) {
      case Kind::This:
        return port.str();
      case Kind::Cell:
        return parent + "." + port;
      case Kind::Hole:
        return parent + "[" + port + "]";
      case Kind::Const:
        return std::to_string(width) + "'d" + std::to_string(value);
    }
    panic("bad PortRef kind");
}

size_t
PortRefHash::operator()(const PortRef &p) const noexcept
{
    uint64_t h = static_cast<uint64_t>(p.kind);
    h = h * 0x9e3779b97f4a7c15ull + p.parent.id();
    h = h * 0x9e3779b97f4a7c15ull + p.port.id();
    h = h * 0x9e3779b97f4a7c15ull + p.value;
    h = h * 0x9e3779b97f4a7c15ull + p.width;
    return static_cast<size_t>(h);
}

PortRef
cellPort(Symbol cell, Symbol port)
{
    PortRef p;
    p.kind = PortRef::Kind::Cell;
    p.parent = cell;
    p.port = port;
    return p;
}

PortRef
thisPort(Symbol port)
{
    PortRef p;
    p.kind = PortRef::Kind::This;
    p.port = port;
    return p;
}

PortRef
holePort(Symbol group, Symbol hole)
{
    PortRef p;
    p.kind = PortRef::Kind::Hole;
    p.parent = group;
    p.port = hole;
    return p;
}

PortRef
constant(uint64_t value, Width width)
{
    checkedWidth(width, "constant");
    if (value != truncate(value, width))
        fatal("constant ", value, " does not fit in ", width, " bits");
    PortRef p;
    p.kind = PortRef::Kind::Const;
    p.value = value;
    p.width = width;
    return p;
}

} // namespace calyx
