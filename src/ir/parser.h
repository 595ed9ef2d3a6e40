#ifndef CALYX_IR_PARSER_H
#define CALYX_IR_PARSER_H

#include <string>

#include "ir/context.h"

namespace calyx {

/**
 * Recursive-descent parser for the textual Calyx IL emitted by Printer.
 * Accepts extern blocks, components with cells/wires/control sections,
 * guarded assignments, and the full control language.
 */
class Parser
{
  public:
    /**
     * Deepest nesting the parser accepts, counting each control
     * statement inside its parent and each `!` or parenthesis of a
     * guard. The parser recurses once per level, so deeper input is an
     * Error rather than a stack overflow.
     */
    static constexpr int kMaxNesting = 256;

    /** Parse a whole program. Throws Error with line info on bad input. */
    static Context parseProgram(const std::string &source);
};

} // namespace calyx

#endif // CALYX_IR_PARSER_H
