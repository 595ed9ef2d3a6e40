#include "emit/json_netlist.h"


#include "support/error.h"
#include "support/json.h"

namespace calyx::emit {

namespace {

constexpr const char *formatName = "calyx-netlist";
constexpr uint64_t formatVersion = 1;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value
attrsToJson(const Attributes &attrs)
{
    json::Value obj = json::Value::object();
    for (const auto &[name, value] : attrs.all()) {
        if (value < 0)
            fatal("json-netlist: negative attribute value for '", name,
                  "' is not representable");
        obj.set(name, json::Value::number(static_cast<uint64_t>(value)));
    }
    return obj;
}

json::Value
refToJson(const PortRef &ref)
{
    json::Value obj = json::Value::object();
    switch (ref.kind) {
      case PortRef::Kind::This:
        obj.set("kind", json::Value::str("this"));
        obj.set("port", json::Value::str(ref.port));
        break;
      case PortRef::Kind::Cell:
        obj.set("kind", json::Value::str("cell"));
        obj.set("cell", json::Value::str(ref.parent));
        obj.set("port", json::Value::str(ref.port));
        break;
      case PortRef::Kind::Const:
        obj.set("kind", json::Value::str("const"));
        obj.set("width", json::Value::number(ref.width));
        obj.set("value", json::Value::number(ref.value));
        break;
      case PortRef::Kind::Hole:
        fatal("json-netlist: residual hole ", ref.str(),
              " (run RemoveGroups first)");
    }
    return obj;
}

const char *
cmpOpName(Guard::CmpOp op)
{
    switch (op) {
      case Guard::CmpOp::Eq:  return "eq";
      case Guard::CmpOp::Neq: return "neq";
      case Guard::CmpOp::Lt:  return "lt";
      case Guard::CmpOp::Gt:  return "gt";
      case Guard::CmpOp::Leq: return "leq";
      case Guard::CmpOp::Geq: return "geq";
    }
    panic("bad cmp op");
}

json::Value
guardToJson(const GuardPtr &g)
{
    json::Value obj = json::Value::object();
    switch (g->kind()) {
      case Guard::Kind::True:
        obj.set("kind", json::Value::str("true"));
        break;
      case Guard::Kind::Port:
        obj.set("kind", json::Value::str("port"));
        obj.set("port", refToJson(g->port()));
        break;
      case Guard::Kind::Not:
        obj.set("kind", json::Value::str("not"));
        obj.set("arg", guardToJson(g->left()));
        break;
      case Guard::Kind::And:
        obj.set("kind", json::Value::str("and"));
        obj.set("left", guardToJson(g->left()));
        obj.set("right", guardToJson(g->right()));
        break;
      case Guard::Kind::Or:
        obj.set("kind", json::Value::str("or"));
        obj.set("left", guardToJson(g->left()));
        obj.set("right", guardToJson(g->right()));
        break;
      case Guard::Kind::Cmp:
        obj.set("kind", json::Value::str("cmp"));
        obj.set("op", json::Value::str(cmpOpName(g->cmpOp())));
        obj.set("lhs", refToJson(g->lhs()));
        obj.set("rhs", refToJson(g->rhs()));
        break;
    }
    return obj;
}

json::Value
componentToJson(const Component &comp)
{
    if (!comp.groups().empty())
        fatal("json-netlist: component ", comp.name(),
              " still has groups (run the compilation pipeline first)");

    json::Value obj = json::Value::object();
    obj.set("name", json::Value::str(comp.name()));
    if (!comp.attrs().empty())
        obj.set("attributes", attrsToJson(comp.attrs()));

    json::Value sig = json::Value::array();
    for (const auto &p : comp.signature()) {
        // go/done are implicit in every component.
        if (p.name == "go" || p.name == "done")
            continue;
        json::Value port = json::Value::object();
        port.set("name", json::Value::str(p.name));
        port.set("width", json::Value::number(p.width));
        port.set("dir", json::Value::str(
                            p.dir == Direction::Input ? "input" : "output"));
        sig.push(std::move(port));
    }
    obj.set("signature", std::move(sig));

    json::Value cells = json::Value::array();
    for (const auto &cell : comp.cells()) {
        json::Value c = json::Value::object();
        c.set("name", json::Value::str(cell->name()));
        c.set("type", json::Value::str(cell->type()));
        json::Value params = json::Value::array();
        for (uint64_t p : cell->params())
            params.push(json::Value::number(p));
        c.set("params", std::move(params));
        if (!cell->attrs().empty())
            c.set("attributes", attrsToJson(cell->attrs()));
        cells.push(std::move(c));
    }
    obj.set("cells", std::move(cells));

    json::Value assigns = json::Value::array();
    for (const auto &a : comp.continuousAssignments()) {
        json::Value j = json::Value::object();
        j.set("dst", refToJson(a.dst));
        j.set("src", refToJson(a.src));
        if (!a.guard->isTrue())
            j.set("guard", guardToJson(a.guard));
        assigns.push(std::move(j));
    }
    obj.set("assignments", std::move(assigns));
    return obj;
}

json::Value
primDefToJson(const PrimitiveDef &def)
{
    json::Value obj = json::Value::object();
    obj.set("name", json::Value::str(def.name));
    obj.set("file", json::Value::str(def.externFile));
    json::Value params = json::Value::array();
    for (const auto &p : def.params)
        params.push(json::Value::str(p));
    obj.set("params", std::move(params));
    json::Value ports = json::Value::array();
    for (const auto &spec : def.ports) {
        json::Value p = json::Value::object();
        p.set("name", json::Value::str(spec.name));
        p.set("dir", json::Value::str(spec.dir == Direction::Input
                                          ? "input"
                                          : "output"));
        if (spec.widthParam.empty())
            p.set("width", json::Value::number(spec.fixedWidth));
        else
            p.set("width_param", json::Value::str(spec.widthParam));
        ports.push(std::move(p));
    }
    obj.set("ports", std::move(ports));
    if (!def.goPort.empty())
        obj.set("go_port", json::Value::str(def.goPort));
    if (!def.donePort.empty())
        obj.set("done_port", json::Value::str(def.donePort));
    if (def.isMemory)
        obj.set("is_memory", json::Value::boolean(true));
    if (!def.attrs.empty())
        obj.set("attributes", attrsToJson(def.attrs));
    return obj;
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

Attributes
attrsFromJson(const json::Value &obj)
{
    Attributes attrs;
    for (const auto &[name, value] : obj.members())
        attrs.set(name, static_cast<int64_t>(value.asNum()));
    return attrs;
}

PortRef
refFromJson(const json::Value &obj)
{
    const std::string &kind = obj.at("kind").asStr();
    if (kind == "this")
        return thisPort(obj.at("port").asStr());
    if (kind == "cell")
        return cellPort(obj.at("cell").asStr(), obj.at("port").asStr());
    if (kind == "const")
        return constant(obj.at("value").asNum(),
                        checkedWidth(obj.at("width").asNum(), "constant"));
    fatal("json-netlist: bad port reference kind '", kind, "'");
}

Direction
dirFromJson(const json::Value &v)
{
    const std::string &dir = v.asStr();
    if (dir == "input")
        return Direction::Input;
    if (dir == "output")
        return Direction::Output;
    fatal("json-netlist: bad port direction '", dir, "'");
}

Guard::CmpOp
cmpOpFromName(const std::string &name)
{
    if (name == "eq")  return Guard::CmpOp::Eq;
    if (name == "neq") return Guard::CmpOp::Neq;
    if (name == "lt")  return Guard::CmpOp::Lt;
    if (name == "gt")  return Guard::CmpOp::Gt;
    if (name == "leq") return Guard::CmpOp::Leq;
    if (name == "geq") return Guard::CmpOp::Geq;
    fatal("json-netlist: bad comparison operator '", name, "'");
}

GuardPtr
guardFromJson(const json::Value &obj)
{
    const std::string &kind = obj.at("kind").asStr();
    if (kind == "true")
        return Guard::trueGuard();
    if (kind == "port")
        return Guard::fromPort(refFromJson(obj.at("port")));
    if (kind == "not")
        return Guard::negate(guardFromJson(obj.at("arg")));
    if (kind == "and")
        return Guard::conj(guardFromJson(obj.at("left")),
                           guardFromJson(obj.at("right")));
    if (kind == "or")
        return Guard::disj(guardFromJson(obj.at("left")),
                           guardFromJson(obj.at("right")));
    if (kind == "cmp")
        return Guard::cmp(cmpOpFromName(obj.at("op").asStr()),
                          refFromJson(obj.at("lhs")),
                          refFromJson(obj.at("rhs")));
    fatal("json-netlist: bad guard kind '", kind, "'");
}

PrimitiveDef
primDefFromJson(const json::Value &obj)
{
    PrimitiveDef def;
    def.name = obj.at("name").asStr();
    def.externFile = obj.at("file").asStr();
    for (const auto &p : obj.at("params").items())
        def.params.push_back(p.asStr());
    for (const auto &p : obj.at("ports").items()) {
        PrimPortSpec spec;
        spec.name = p.at("name").asStr();
        spec.dir = dirFromJson(p.at("dir"));
        if (const json::Value *wp = p.find("width_param"))
            spec.widthParam = wp->asStr();
        else
            spec.fixedWidth =
                checkedWidth(p.at("width").asNum(), "port ", spec.name);
        def.ports.push_back(std::move(spec));
    }
    if (const json::Value *go = obj.find("go_port"))
        def.goPort = go->asStr();
    if (const json::Value *done = obj.find("done_port"))
        def.donePort = done->asStr();
    if (const json::Value *mem = obj.find("is_memory"))
        def.isMemory = mem->asBool();
    if (const json::Value *attrs = obj.find("attributes"))
        def.attrs = attrsFromJson(*attrs);
    return def;
}

} // namespace

void
JsonNetlistBackend::emit(const Context &ctx, std::ostream &os) const
{
    json::Value doc = json::Value::object();
    doc.set("format", json::Value::str(formatName));
    doc.set("version", json::Value::number(formatVersion));
    doc.set("entrypoint", json::Value::str(ctx.entrypoint()));

    json::Value externs = json::Value::array();
    for (const auto &[name, def] : ctx.primitives().all()) {
        if (!def.externFile.empty())
            externs.push(primDefToJson(def));
    }
    doc.set("extern_primitives", std::move(externs));

    json::Value comps = json::Value::array();
    for (const auto &comp : ctx.components())
        comps.push(componentToJson(*comp));
    doc.set("components", std::move(comps));

    // Compact: lowered guards nest hundreds of levels deep, so
    // indentation would outweigh the netlist itself.
    doc.write(os, -1);
    os << "\n";
}

Context
loadJsonNetlist(const std::string &text)
{
    json::Value doc = json::parse(text);
    if (doc.at("format").asStr() != formatName)
        fatal("json-netlist: not a ", formatName, " document");
    if (doc.at("version").asNum() != formatVersion)
        fatal("json-netlist: unsupported version ",
              doc.at("version").asNum(), " (expected ", formatVersion, ")");

    Context ctx;
    for (const auto &e : doc.at("extern_primitives").items())
        ctx.primitives().add(primDefFromJson(e));

    // Pass 1: declare every component with its signature, so cells can
    // instantiate sibling components regardless of serialization order.
    const json::Value &comps = doc.at("components");
    for (const auto &c : comps.items()) {
        Component &comp = ctx.addComponent(c.at("name").asStr());
        for (const auto &p : c.at("signature").items()) {
            const std::string &pname = p.at("name").asStr();
            // go/done already exist implicitly.
            if (pname == "go" || pname == "done")
                continue;
            Width w = checkedWidth(p.at("width").asNum(), "port ", pname);
            if (dirFromJson(p.at("dir")) == Direction::Input)
                comp.addInput(pname, w);
            else
                comp.addOutput(pname, w);
        }
        if (const json::Value *attrs = c.find("attributes"))
            comp.attrs() = attrsFromJson(*attrs);
    }

    // Pass 2: cells and assignments.
    for (const auto &c : comps.items()) {
        Component &comp = ctx.component(c.at("name").asStr());
        for (const auto &cell : c.at("cells").items()) {
            std::vector<uint64_t> params;
            for (const auto &p : cell.at("params").items())
                params.push_back(p.asNum());
            Cell &built = comp.addCell(cell.at("name").asStr(),
                                       cell.at("type").asStr(), params, ctx);
            if (const json::Value *attrs = cell.find("attributes"))
                built.attrs() = attrsFromJson(*attrs);
        }
        for (const auto &a : c.at("assignments").items()) {
            GuardPtr guard = Guard::trueGuard();
            if (const json::Value *g = a.find("guard"))
                guard = guardFromJson(*g);
            comp.continuousAssignments().emplace_back(
                refFromJson(a.at("dst")), refFromJson(a.at("src")),
                std::move(guard));
        }
    }

    ctx.setEntrypoint(doc.at("entrypoint").asStr());
    return ctx;
}

namespace {
BackendRegistration<JsonNetlistBackend> registration{
    "json-netlist",
    "JSON netlist of the flat guarded-assignment form (lowered programs "
    "only); reloadable via loadJsonNetlist",
    ".json", /*requires_lowered=*/true};
} // namespace

} // namespace calyx::emit
