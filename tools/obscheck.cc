/**
 * @file
 * obscheck: validator for the observability artifacts futil emits
 * (docs/observability.md), run by scripts/obs_smoke.sh and CI.
 *
 * Usage:
 *   obscheck vcd <file.vcd>       structural VCD checks: required
 *                                 header sections, balanced scopes, at
 *                                 least one $var, value changes only
 *                                 after $enddefinitions and only for
 *                                 declared identifier codes, strictly
 *                                 increasing timestamps
 *   obscheck profile <file.json>  parse the JSON report envelope and
 *                                 check the schema fields the profiler
 *                                 guarantees
 *
 * Exits 0 when the artifact validates, 1 with a diagnostic otherwise.
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/error.h"
#include "support/json.h"

namespace {

int
fail(const std::string &msg)
{
    std::cerr << "obscheck: " << msg << "\n";
    return 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        calyx::fatal("cannot open ", path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
checkVcd(const std::string &path)
{
    std::istringstream in(readFile(path));
    bool saw_timescale = false, saw_enddefs = false;
    int scope_depth = 0;
    size_t var_count = 0;
    std::unordered_set<std::string> codes;
    bool have_time = false;
    unsigned long long last_time = 0;
    size_t lineno = 0;
    std::string line;

    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        auto at = [&] { return path + ":" + std::to_string(lineno); };

        if (tok == "$timescale" || tok == "$date" || tok == "$version") {
            if (tok == "$timescale")
                saw_timescale = true;
            // Multi-line section: skip the body up to its $end (which
            // may share the directive's line).
            while (line.find("$end") == std::string::npos &&
                   std::getline(in, line))
                ++lineno;
        } else if (tok == "$scope") {
            if (saw_enddefs)
                return fail(at() + ": $scope after $enddefinitions");
            ++scope_depth;
        } else if (tok == "$upscope") {
            if (--scope_depth < 0)
                return fail(at() + ": unbalanced $upscope");
        } else if (tok == "$var") {
            if (saw_enddefs)
                return fail(at() + ": $var after $enddefinitions");
            // $var wire <width> <code> <name> ... $end
            std::string kind, width, code;
            ls >> kind >> width >> code;
            if (code.empty())
                return fail(at() + ": malformed $var");
            codes.insert(code);
            ++var_count;
        } else if (tok == "$enddefinitions") {
            if (scope_depth != 0)
                return fail(at() + ": unbalanced scopes at "
                                   "$enddefinitions");
            saw_enddefs = true;
        } else if (tok[0] == '#') {
            if (!saw_enddefs)
                return fail(at() + ": timestamp before $enddefinitions");
            unsigned long long t =
                std::stoull(tok.substr(1), nullptr, 10);
            if (have_time && t <= last_time)
                return fail(at() + ": non-monotonic timestamp #" +
                            std::to_string(t) + " after #" +
                            std::to_string(last_time));
            last_time = t;
            have_time = true;
        } else if (tok[0] == '0' || tok[0] == '1') {
            if (!saw_enddefs)
                return fail(at() +
                            ": value change before $enddefinitions");
            std::string code = tok.substr(1);
            if (!codes.count(code))
                return fail(at() + ": value change for undeclared id '" +
                            code + "'");
        } else if (tok[0] == 'b') {
            if (!saw_enddefs)
                return fail(at() +
                            ": value change before $enddefinitions");
            std::string code;
            ls >> code;
            if (!codes.count(code))
                return fail(at() + ": value change for undeclared id '" +
                            code + "'");
        }
        // $date/$version/$dumpvars/$end bodies pass through unchecked.
    }

    if (!saw_timescale)
        return fail(path + ": missing $timescale");
    if (!saw_enddefs)
        return fail(path + ": missing $enddefinitions");
    if (var_count == 0)
        return fail(path + ": no $var declarations");
    if (!have_time)
        return fail(path + ": no timestamps");
    return 0;
}

int
checkProfile(const std::string &path)
{
    calyx::json::Value doc = calyx::json::parse(readFile(path));
    if (doc.kind() != calyx::json::Value::Kind::Obj)
        return fail(path + ": envelope is not an object");
    if (doc.at("version").asNum() != 1)
        return fail(path + ": unknown envelope version");
    doc.at("file").asStr();

    const calyx::json::Value *sim = doc.find("sim");
    if (!sim)
        return fail(path + ": envelope has no sim section");
    sim->at("engine").asStr();
    const calyx::json::Value &profile = sim->at("profile");
    uint64_t cycles = profile.at("cycles").asNum();
    uint64_t attributed = profile.at("attributed_cycles").asNum();
    if (attributed > cycles)
        return fail(path + ": attributed_cycles exceeds cycles");
    profile.at("attributed_pct").asReal();
    for (const auto &g : profile.at("groups").items()) {
        g.at("name").asStr();
        g.at("cycles").asNum();
    }
    for (const auto &m : profile.at("machines").items()) {
        m.at("name").asStr();
        m.at("register").asStr();
        m.at("encoding").asStr();
        m.at("unattributed_cycles").asNum();
        for (const auto &s : m.at("states").items()) {
            s.at("name").asStr();
            s.at("cycles").asNum();
        }
    }
    for (const auto &mem : profile.at("memories").items()) {
        mem.at("name").asStr();
        mem.at("read_cycles").asNum();
        mem.at("write_cycles").asNum();
    }
    const calyx::json::Value &eng = profile.at("engine");
    eng.at("comb_evals_total").asNum();
    eng.at("comb_evals_max").asNum();
    eng.at("comb_evals_avg").asReal();
    uint64_t tree = eng.at("guard_tree_nodes").asNum();
    if (eng.at("guard_dag_nodes").asNum() > tree)
        return fail(path + ": guard_dag_nodes exceeds guard_tree_nodes");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: obscheck vcd <file.vcd> | obscheck profile "
                     "<file.json>\n";
        return 2;
    }
    std::string mode = argv[1], path = argv[2];
    try {
        if (mode == "vcd")
            return checkVcd(path);
        if (mode == "profile")
            return checkProfile(path);
    } catch (const calyx::Error &e) {
        return fail(path + ": " + e.what());
    } catch (const std::exception &e) {
        return fail(path + ": " + e.what());
    }
    std::cerr << "obscheck: unknown mode '" << mode << "'\n";
    return 2;
}
