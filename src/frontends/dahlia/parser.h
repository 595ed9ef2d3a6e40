#ifndef CALYX_FRONTENDS_DAHLIA_PARSER_H
#define CALYX_FRONTENDS_DAHLIA_PARSER_H

#include <string>

#include "frontends/dahlia/ast.h"

namespace calyx::dahlia {

/**
 * Deepest nesting parse() accepts, counting each `{ }` block inside its
 * parent and each parenthesis, `sqrt(` and index bracket of an
 * expression. The parser recurses once per level, so deeper input is an
 * Error rather than a stack overflow.
 */
constexpr int kMaxNesting = 256;

/**
 * Parser for mini-Dahlia (paper §6.2). Composition operators follow
 * Dahlia's precedence: `;` (unordered) binds tighter than `---`
 * (ordered), so `a; b --- c` parses as `(a; b) --- c`.
 */
Program parse(const std::string &source);

} // namespace calyx::dahlia

#endif // CALYX_FRONTENDS_DAHLIA_PARSER_H
