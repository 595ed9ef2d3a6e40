#include "ir/context.h"

#include <map>
#include <unordered_set>

#include "support/error.h"
#include "support/text.h"

namespace calyx {

Component &
Context::addComponent(Symbol name)
{
    if (findComponent(name) || prims.has(name))
        fatal("duplicate component definition: ", name);
    comps.push_back(std::make_unique<Component>(name));
    return *comps.back();
}

Component *
Context::findComponent(Symbol name)
{
    for (auto &c : comps) {
        if (c->name() == name)
            return c.get();
    }
    return nullptr;
}

const Component *
Context::findComponent(Symbol name) const
{
    for (const auto &c : comps) {
        if (c->name() == name)
            return c.get();
    }
    return nullptr;
}

Component &
Context::component(Symbol name)
{
    Component *c = findComponent(name);
    if (!c)
        fatal("unknown component: ", name);
    return *c;
}

const Component &
Context::component(Symbol name) const
{
    const Component *c = findComponent(name);
    if (!c)
        fatal("unknown component: ", name);
    return *c;
}

std::unique_ptr<Cell>
Context::instantiate(Symbol name, Symbol type,
                     const std::vector<uint64_t> &params) const
{
    if (prims.has(type)) {
        const PrimitiveDef &def = prims.get(type);
        if (params.size() != def.params.size()) {
            fatal("primitive ", type, " expects ", def.params.size(),
                  " parameters, got ", params.size());
        }
        std::map<Symbol, uint64_t> env;
        for (size_t i = 0; i < params.size(); ++i)
            env[def.params[i]] = params[i];
        std::vector<PortDef> ports;
        for (const auto &spec : def.ports) {
            uint64_t w = spec.fixedWidth;
            if (!spec.widthParam.empty()) {
                auto it = env.find(spec.widthParam);
                if (it == env.end()) {
                    fatal("primitive ", type, ": port ", spec.name,
                          " references unknown parameter ", spec.widthParam);
                }
                w = it->second;
            }
            ports.push_back(PortDef{
                spec.name,
                checkedWidth(w, "primitive ", type, ": port ", spec.name),
                spec.dir});
        }
        auto cell = std::make_unique<Cell>(name, type, params,
                                           std::move(ports), true);
        cell->attrs() = def.attrs;
        return cell;
    }

    const Component *def = findComponent(type);
    if (!def) {
        // Mirror the pass/backend registries' UX: name the closest
        // known primitive or component when the type looks like a typo.
        std::vector<std::string> candidates;
        for (const auto &[prim_name, unused] : prims.all())
            candidates.push_back(prim_name.str());
        for (const auto &c : comps)
            candidates.push_back(c->name().str());
        std::string close = suggestClosest(type.str(), candidates);
        if (close.empty())
            fatal("unknown cell type: ", type);
        fatal("unknown cell type: ", type, " (did you mean '", close,
              "'?)");
    }
    if (!params.empty())
        fatal("component instances take no parameters: ", type);
    std::vector<PortDef> ports = def->signature();
    auto cell =
        std::make_unique<Cell>(name, type, params, std::move(ports), false);
    // Propagate the component's latency so instantiating groups can infer
    // their own latency (paper §5.3, §6.1).
    if (auto lat = def->staticLatency())
        cell->attrs().set(Attributes::staticAttr, *lat);
    cell->attrs().set(Attributes::statefulAttr, 1);
    return cell;
}

std::vector<Component *>
Context::topologicalOrder()
{
    std::vector<Component *> order;
    std::unordered_set<Symbol> done;
    std::unordered_set<Symbol> visiting;

    std::function<void(Component *)> visit = [&](Component *c) {
        if (done.count(c->name()))
            return;
        if (visiting.count(c->name()))
            fatal("component instantiation cycle involving ", c->name());
        visiting.insert(c->name());
        for (const auto &cell : c->cells()) {
            if (!cell->isPrimitive())
                visit(&component(cell->type()));
        }
        visiting.erase(c->name());
        done.insert(c->name());
        order.push_back(c);
    };

    for (auto &c : comps)
        visit(c.get());
    return order;
}

} // namespace calyx
