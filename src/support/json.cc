#include "support/json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "support/error.h"

namespace calyx::json {

Value
Value::boolean(bool b)
{
    Value v;
    v.kindVal = Kind::Bool;
    v.boolVal = b;
    return v;
}

Value
Value::number(uint64_t n)
{
    Value v;
    v.kindVal = Kind::Num;
    v.numVal = n;
    return v;
}

Value
Value::real(double d)
{
    Value v;
    v.kindVal = Kind::Real;
    v.realVal = d;
    return v;
}

Value
Value::str(std::string s)
{
    Value v;
    v.kindVal = Kind::Str;
    v.strVal = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v.kindVal = Kind::Arr;
    return v;
}

Value
Value::object()
{
    Value v;
    v.kindVal = Kind::Obj;
    return v;
}

namespace {

const char *
kindName(Value::Kind k)
{
    switch (k) {
      case Value::Kind::Null: return "null";
      case Value::Kind::Bool: return "bool";
      case Value::Kind::Num:  return "number";
      case Value::Kind::Real: return "real";
      case Value::Kind::Str:  return "string";
      case Value::Kind::Arr:  return "array";
      case Value::Kind::Obj:  return "object";
    }
    return "?";
}

[[noreturn]] void
wrongKind(Value::Kind want, Value::Kind got)
{
    fatal("json: expected ", kindName(want), ", got ", kindName(got));
}

} // namespace

bool
Value::asBool() const
{
    if (kindVal != Kind::Bool)
        wrongKind(Kind::Bool, kindVal);
    return boolVal;
}

uint64_t
Value::asNum() const
{
    if (kindVal != Kind::Num)
        wrongKind(Kind::Num, kindVal);
    return numVal;
}

double
Value::asReal() const
{
    if (kindVal == Kind::Num)
        return static_cast<double>(numVal);
    if (kindVal != Kind::Real)
        wrongKind(Kind::Real, kindVal);
    return realVal;
}

const std::string &
Value::asStr() const
{
    if (kindVal != Kind::Str)
        wrongKind(Kind::Str, kindVal);
    return strVal;
}

const std::vector<Value> &
Value::items() const
{
    if (kindVal != Kind::Arr)
        wrongKind(Kind::Arr, kindVal);
    return arr;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (kindVal != Kind::Obj)
        wrongKind(Kind::Obj, kindVal);
    return obj;
}

void
Value::push(Value v)
{
    if (kindVal != Kind::Arr)
        wrongKind(Kind::Arr, kindVal);
    arr.push_back(std::move(v));
}

void
Value::set(const std::string &key, Value v)
{
    if (kindVal != Kind::Obj)
        wrongKind(Kind::Obj, kindVal);
    obj.emplace_back(key, std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    if (kindVal != Kind::Obj)
        wrongKind(Kind::Obj, kindVal);
    const Value *found = nullptr;
    for (const auto &[k, v] : obj) {
        if (k == key)
            found = &v; // later sets win
    }
    return found;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        fatal("json: missing object member '", key, "'");
    return *v;
}

namespace {

void
writeEscaped(const std::string &s, std::ostream &os)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':  os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n";  break;
          case '\t': os << "\\t";  break;
          case '\r': os << "\\r";  break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

void
Value::write(std::ostream &os, int indent) const
{
    const bool pretty = indent >= 0;
    const int next = pretty ? indent + 2 : indent;
    // Between elements: a newline and the inner indentation, or nothing.
    auto breakTo = [&](int level) {
        if (pretty)
            os << '\n' << std::string(level, ' ');
    };
    switch (kindVal) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (boolVal ? "true" : "false");
        break;
      case Kind::Num:
        os << numVal;
        break;
      case Kind::Real: {
        // %.17g round-trips doubles but litters output with noise
        // digits; profile fields are percentages and milliseconds, so
        // six significant digits are plenty. Non-finite values have no
        // JSON spelling; emit 0.
        char buf[32];
        double d = realVal;
        if (!(d == d) || d > 1e308 || d < -1e308)
            d = 0;
        std::snprintf(buf, sizeof(buf), "%.6g", d);
        os << buf;
        // Keep a syntactic marker so the value re-parses as Real.
        if (!std::strpbrk(buf, ".eE"))
            os << ".0";
        break;
      }
      case Kind::Str:
        writeEscaped(strVal, os);
        break;
      case Kind::Arr: {
        if (arr.empty()) {
            os << "[]";
            break;
        }
        os << "[";
        for (size_t i = 0; i < arr.size(); ++i) {
            os << (i ? "," : "");
            breakTo(next);
            arr[i].write(os, next);
        }
        breakTo(indent);
        os << "]";
        break;
      }
      case Kind::Obj: {
        if (obj.empty()) {
            os << "{}";
            break;
        }
        os << "{";
        for (size_t i = 0; i < obj.size(); ++i) {
            os << (i ? "," : "");
            breakTo(next);
            writeEscaped(obj[i].first, os);
            os << (pretty ? ": " : ":");
            obj[i].second.write(os, next);
        }
        breakTo(indent);
        os << "}";
        break;
      }
    }
}

std::string
Value::str() const
{
    std::ostringstream os;
    write(os, -1);
    return os.str();
}

namespace {

/** Recursive-descent JSON parser over the integer-only subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos != text.size())
            err("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    err(const std::string &msg)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json: ", msg, " at line ", line, ":", col);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            err("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            err(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    Value
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{' || c == '[') {
            if (++depth > kMaxDepth)
                err("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
            Value v = c == '{' ? parseObject() : parseArray();
            --depth;
            return v;
        }
        if (c == '"')
            return Value::str(parseString());
        if ((c >= '0' && c <= '9') || c == '-')
            return parseNumber();
        if (consumeWord("true"))
            return Value::boolean(true);
        if (consumeWord("false"))
            return Value::boolean(false);
        if (consumeWord("null"))
            return Value();
        err("unexpected character");
    }

    Value
    parseObject()
    {
        expect('{');
        Value v = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.set(key, parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Value v = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.push(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                err("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                err("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    err("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else
                        err("bad \\u escape digit");
                }
                if (code > 0x7f)
                    err("non-ASCII \\u escapes are not supported");
                out += static_cast<char>(code);
                break;
              }
              default:
                err("bad escape character");
            }
        }
    }

    Value
    parseNumber()
    {
        size_t start = pos;
        bool negative = false;
        if (pos < text.size() && text[pos] == '-') {
            negative = true;
            ++pos;
        }
        uint64_t n = 0;
        bool any = false, overflow = false;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
            uint64_t digit = static_cast<uint64_t>(text[pos] - '0');
            if (n > (UINT64_MAX - digit) / 10)
                overflow = true;
            else
                n = n * 10 + digit;
            ++pos;
            any = true;
        }
        if (!any)
            err("expected digits");
        bool fractional = pos < text.size() &&
                          (text[pos] == '.' || text[pos] == 'e' ||
                           text[pos] == 'E');
        if (!negative && !fractional) {
            // Plain unsigned integer: keep full 64-bit precision (the
            // netlist format depends on exact round-trips).
            if (overflow)
                err("integer overflow");
            return Value::number(n);
        }
        if (fractional) {
            if (text[pos] == '.') {
                ++pos;
                if (pos >= text.size() || text[pos] < '0' ||
                    text[pos] > '9')
                    err("expected digits after '.'");
                while (pos < text.size() && text[pos] >= '0' &&
                       text[pos] <= '9')
                    ++pos;
            }
            if (pos < text.size() &&
                (text[pos] == 'e' || text[pos] == 'E')) {
                ++pos;
                if (pos < text.size() &&
                    (text[pos] == '+' || text[pos] == '-'))
                    ++pos;
                if (pos >= text.size() || text[pos] < '0' ||
                    text[pos] > '9')
                    err("expected exponent digits");
                while (pos < text.size() && text[pos] >= '0' &&
                       text[pos] <= '9')
                    ++pos;
            }
        }
        return Value::real(
            std::strtod(text.substr(start, pos - start).c_str(), nullptr));
    }

    const std::string &text;
    size_t pos = 0;
    size_t depth = 0; ///< Arrays and objects open at `pos`.
};

} // namespace

Value
parse(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

} // namespace calyx::json
