#include "passes/wellformed.h"

#include "passes/registry.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "ir/defuse.h"
#include "support/error.h"
#include "support/text.h"

namespace calyx::passes {

namespace {

/** Whether `ref` may appear on the left-hand side of an assignment. */
void
checkWritable(const Component &comp, const PortRef &ref,
              const std::string &where)
{
    switch (ref.kind) {
      case PortRef::Kind::Const:
        fatal(comp.name(), "/", where, ": constant on assignment lhs");
      case PortRef::Kind::Hole:
        if (ref.port != "go" && ref.port != "done")
            fatal(comp.name(), "/", where, ": unknown hole ", ref.str());
        return;
      case PortRef::Kind::This:
        if (comp.port(ref.port).dir != Direction::Output)
            fatal(comp.name(), "/", where, ": write to input port ",
                  ref.str());
        return;
      case PortRef::Kind::Cell:
        if (comp.cell(ref.parent).portDir(ref.port) != Direction::Input)
            fatal(comp.name(), "/", where, ": write to cell output ",
                  ref.str());
        return;
    }
}

/** Whether `ref` may be read. */
void
checkReadable(const Component &comp, const PortRef &ref,
              const std::string &where)
{
    switch (ref.kind) {
      case PortRef::Kind::Const:
        return;
      case PortRef::Kind::Hole:
        if (ref.port != "go" && ref.port != "done")
            fatal(comp.name(), "/", where, ": unknown hole ", ref.str());
        if (!comp.findGroup(ref.parent))
            fatal(comp.name(), "/", where, ": hole of unknown group ",
                  ref.str());
        return;
      case PortRef::Kind::This:
        if (comp.port(ref.port).dir != Direction::Input)
            fatal(comp.name(), "/", where, ": read of output port ",
                  ref.str());
        return;
      case PortRef::Kind::Cell:
        if (comp.cell(ref.parent).portDir(ref.port) != Direction::Output)
            fatal(comp.name(), "/", where, ": read of cell input ",
                  ref.str());
        return;
    }
}

void
checkGuard(const Component &comp, const GuardPtr &g,
           const std::string &where)
{
    switch (g->kind()) {
      case Guard::Kind::True:
        return;
      case Guard::Kind::Port:
        checkReadable(comp, g->port(), where);
        if (comp.portWidth(g->port()) != 1)
            fatal(comp.name(), "/", where, ": guard port ",
                  g->port().str(), " is not 1-bit");
        return;
      case Guard::Kind::Cmp: {
        if (!g->lhs().isConst())
            checkReadable(comp, g->lhs(), where);
        if (!g->rhs().isConst())
            checkReadable(comp, g->rhs(), where);
        Width lw = comp.portWidth(g->lhs());
        Width rw = comp.portWidth(g->rhs());
        if (lw != rw)
            fatal(comp.name(), "/", where, ": comparison width mismatch ",
                  g->lhs().str(), " (", lw, ") vs ", g->rhs().str(), " (",
                  rw, ")");
        return;
      }
      case Guard::Kind::Not:
        checkGuard(comp, g->left(), where);
        return;
      case Guard::Kind::And:
      case Guard::Kind::Or:
        checkGuard(comp, g->left(), where);
        checkGuard(comp, g->right(), where);
        return;
    }
}

void
checkAssignments(const Component &comp,
                 const std::vector<Assignment> &assigns,
                 const std::string &where)
{
    std::set<PortRef> unconditional;
    for (const auto &a : assigns) {
        checkWritable(comp, a.dst, where);
        checkReadable(comp, a.src, where);
        checkGuard(comp, a.guard, where);
        Width dw = comp.portWidth(a.dst);
        Width sw = comp.portWidth(a.src);
        if (dw != sw) {
            fatal(comp.name(), "/", where, ": width mismatch in '",
                  a.str(), "' (", dw, " vs ", sw, ")");
        }
        if (a.guard->isTrue()) {
            if (unconditional.count(a.dst)) {
                fatal(comp.name(), "/", where,
                      ": two unconditional drivers for ", a.dst.str());
            }
            unconditional.insert(a.dst);
        }
    }
}

void
checkControl(const Component &comp, const Control &ctrl)
{
    ctrl.walk([&comp](const Control &node) {
        auto check_group = [&comp](const std::string &g,
                                   bool needs_done) {
            const Group *group = comp.findGroup(g);
            if (!group)
                fatal(comp.name(), ": control references unknown group ",
                      g);
            if (needs_done && !group->hasDoneWrite())
                fatal(comp.name(), ": group ", g,
                      " is enabled but never writes its done hole");
        };
        auto check_cond_port = [&comp](const PortRef &p) {
            if (p.isConst())
                fatal(comp.name(), ": constant condition port");
            if (comp.portWidth(p) != 1)
                fatal(comp.name(), ": condition port ", p.str(),
                      " is not 1-bit");
        };
        switch (node.kind()) {
          case Control::Kind::Enable:
            check_group(cast<Enable>(node).group(), true);
            break;
          case Control::Kind::If: {
            const auto &i = cast<If>(node);
            if (!i.condGroup().empty())
                check_group(i.condGroup(), true);
            check_cond_port(i.condPort());
            break;
          }
          case Control::Kind::While: {
            const auto &w = cast<While>(node);
            if (!w.condGroup().empty())
                check_group(w.condGroup(), true);
            check_cond_port(w.condPort());
            break;
          }
          default:
            break;
        }
    });
}

const char *
controlKindName(Control::Kind kind)
{
    switch (kind) {
      case Control::Kind::Enable:
        return "enable";
      case Control::Kind::If:
        return "if";
      case Control::Kind::While:
        return "while";
      default:
        return "control";
    }
}

/**
 * Dangling-reference sweep over the DefUse index: removeCell and
 * removeGroup do not rewrite surviving references, so any use of a
 * name with no definition is reported with the component and the exact
 * referencing site (the group + assignment text, or the control
 * statement kind).
 */
void
checkDanglingRefs(const Component &comp)
{
    DefUse du = DefUse::compute(comp);
    std::vector<std::string> problems;

    // A dangling name is often a typo for a live one; suggest it.
    auto suggest = [&comp](Symbol sym, bool want_group) {
        std::vector<std::string> known;
        if (want_group) {
            for (const auto &g : comp.groups())
                known.push_back(g->name().str());
        } else {
            for (const auto &c : comp.cells())
                known.push_back(c->name().str());
        }
        std::string close = suggestClosest(sym.str(), known);
        return close.empty() ? std::string()
                             : " (did you mean '" + close + "'?)";
    };

    auto site_text = [&comp](const DefUse::AssignSite &site) {
        const Assignment &a =
            site.group.empty()
                ? comp.continuousAssignments()[site.index]
                : comp.group(site.group).assignments()[site.index];
        std::string where = site.group.empty()
                                ? std::string("continuous assignments")
                                : "group '" + site.group + "'";
        return where + ", assignment '" + a.str() + "'";
    };

    for (const auto &[sym, uses] : du.entries()) {
        bool is_cell = comp.findCell(sym) != nullptr;
        bool is_group = comp.findGroup(sym) != nullptr;
        for (const auto &site : uses.assigns) {
            if ((site.roles & DefUse::kAnyCell) && !is_cell) {
                problems.push_back("dangling reference to cell '" +
                                   sym.str() + "' in " + site_text(site) +
                                   suggest(sym, false));
            }
            if ((site.roles & DefUse::kAnyHole) && !is_group) {
                problems.push_back("dangling reference to group '" +
                                   sym.str() + "' hole in " +
                                   site_text(site) + suggest(sym, true));
            }
        }
        for (const auto &use : uses.control) {
            if (use.asGroup && !is_group) {
                problems.push_back(
                    "dangling reference to group '" + sym.str() + "' in " +
                    controlKindName(use.node->kind()) +
                    " control statement" + suggest(sym, true));
            }
            if (!use.asGroup && !is_cell) {
                problems.push_back("dangling reference to cell '" +
                                   sym.str() + "' in " +
                                   controlKindName(use.node->kind()) +
                                   " condition port" + suggest(sym, false));
            }
        }
    }
    if (problems.empty())
        return;
    // The index iterates in hash order; sort for a stable report.
    std::sort(problems.begin(), problems.end());
    std::string msg = problems[0];
    if (problems.size() > 1) {
        msg += " (and " + std::to_string(problems.size() - 1) +
               " more dangling reference(s))";
    }
    fatal(comp.name(), ": ", msg);
}

} // namespace

void
WellFormed::runOnComponent(Component &comp, Context &)
{
    checkDanglingRefs(comp);
    for (const auto &g : comp.groups())
        checkAssignments(comp, g->assignments(), "group " + g->name());
    checkAssignments(comp, comp.continuousAssignments(), "wires");
    checkControl(comp, comp.control());
}

namespace {
PassRegistration<WellFormed> registration{
    "well-formed",
    "Validate structural well-formedness of the IL (§3)",
    {}};
} // namespace

} // namespace calyx::passes
