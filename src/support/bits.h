#ifndef CALYX_SUPPORT_BITS_H
#define CALYX_SUPPORT_BITS_H

#include <cstdint>

#include "support/error.h"

namespace calyx {

/** Bit width of a port or value. Widths are limited to 64 bits. */
using Width = uint32_t;

/**
 * `width` narrowed to a Width, checked first: fatal() unless it is in
 * [1, 64], naming the value with the streamed `what` pieces
 * ("constant", or "port ", name). Checking before the narrowing keeps
 * 2^32 + 1 from wrapping to a 1-bit width.
 */
template <typename... What>
Width
checkedWidth(uint64_t width, const What &...what)
{
    if (width == 0 || width > 64)
        fatal(what..., " width must be in [1, 64], got ", width);
    return static_cast<Width>(width);
}

/** All-ones mask for a width (width 0 yields 0; width >= 64 yields ~0). */
uint64_t bitMask(Width width);

/** Truncate a value to a width. */
uint64_t truncate(uint64_t value, Width width);

/** Minimum width able to represent `value` (at least 1). */
Width bitsNeeded(uint64_t value);

/**
 * Width of a state register able to hold states 0..n inclusive, i.e.
 * bitsNeeded(n). Used by FSM-generating passes.
 */
Width fsmWidth(uint64_t max_state);

} // namespace calyx

#endif // CALYX_SUPPORT_BITS_H
