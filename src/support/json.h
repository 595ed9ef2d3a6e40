#ifndef CALYX_SUPPORT_JSON_H
#define CALYX_SUPPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace calyx::json {

/**
 * Minimal JSON document model for the netlist interchange format
 * (src/emit/json_netlist.*) and the observability report envelope
 * (src/obs/report.h). Self-contained on purpose: the container image
 * bakes in no JSON library, and the subset we need — objects, arrays,
 * strings, unsigned integers, reals, booleans — is tiny.
 *
 * Objects preserve insertion order so emitted documents are
 * deterministic and diffable.
 */
class Value
{
  public:
    enum class Kind { Null, Bool, Num, Real, Str, Arr, Obj };

    Value() = default;

    static Value boolean(bool b);
    static Value number(uint64_t n);
    static Value real(double d);
    static Value str(std::string s);
    static Value array();
    static Value object();

    Kind kind() const { return kindVal; }
    bool isNull() const { return kindVal == Kind::Null; }

    /** Typed accessors; fatal() on a kind mismatch. */
    bool asBool() const;
    uint64_t asNum() const;
    /** Real value; integer Nums coerce (a profile field like 1.0 may
     * have been written and re-parsed as 1). */
    double asReal() const;
    const std::string &asStr() const;
    const std::vector<Value> &items() const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Append to an array; fatal() if this is not one. */
    void push(Value v);

    /** Set an object member (appends; later sets win on lookup). */
    void set(const std::string &key, Value v);

    /** Object member or nullptr; fatal() if this is not an object. */
    const Value *find(const std::string &key) const;

    /** Object member; fatal() when absent. */
    const Value &at(const std::string &key) const;

    /** Serialize with 2-space indentation from column `indent`, for
     * files people read, or on one line with no whitespace when
     * `indent` < 0. */
    void write(std::ostream &os, int indent = 0) const;
    /** write(os, -1): the compact form, for wire frames. */
    std::string str() const;

  private:
    Kind kindVal = Kind::Null;
    bool boolVal = false;
    uint64_t numVal = 0;
    double realVal = 0;
    std::string strVal;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;
};

/**
 * Deepest nesting of arrays and objects that parse() accepts. The
 * parser recurses once per level, so a deeper document is an Error
 * rather than a stack overflow. A json-netlist nests one level per
 * guard operator, and the deepest guard the benchmark workloads lower
 * to has under 400. At this limit a sanitized build uses about half of
 * an 8 MiB stack.
 */
constexpr size_t kMaxDepth = 2048;

/**
 * Parse a JSON document. Throws Error with a line/column position on
 * malformed input, including nesting deeper than kMaxDepth. Plain
 * unsigned integers parse as Num (preserving full 64-bit precision for
 * the netlist format); numbers with a sign, fraction, or exponent parse
 * as Real.
 */
Value parse(const std::string &text);

} // namespace calyx::json

#endif // CALYX_SUPPORT_JSON_H
