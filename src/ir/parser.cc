#include "ir/parser.h"

#include <cctype>
#include <optional>
#include <vector>

#include "support/error.h"

namespace calyx {

namespace {

enum class Tok {
    Ident,
    Number,     // plain decimal
    SizedConst, // W'dV
    String,     // "..."
    Symbol,     // one of the punctuation strings below
    End,
};

struct Token
{
    Tok kind = Tok::End;
    std::string text;   // identifier, symbol spelling, or string body
    uint64_t number = 0;
    Width width = 0;    // SizedConst only
    int line = 1;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src(src) { advance(); }

    const Token &peek() const { return tok; }

    Token next()
    {
        Token t = tok;
        advance();
        return t;
    }

    [[noreturn]] void error(const std::string &msg) const
    {
        fatal("parse error at line ", tok.line, ": ", msg, " (near '",
              tok.text, "')");
    }

  private:
    void
    skipSpace()
    {
        while (pos < src.size()) {
            char c = src[pos];
            if (c == '\n') {
                ++line;
                ++pos;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '/' && pos + 1 < src.size() &&
                       src[pos + 1] == '/') {
                while (pos < src.size() && src[pos] != '\n')
                    ++pos;
            } else if (c == '/' && pos + 1 < src.size() &&
                       src[pos + 1] == '*') {
                pos += 2;
                while (pos + 1 < src.size() &&
                       !(src[pos] == '*' && src[pos + 1] == '/')) {
                    if (src[pos] == '\n')
                        ++line;
                    ++pos;
                }
                pos += 2;
            } else {
                return;
            }
        }
    }

    void
    advance()
    {
        skipSpace();
        tok = Token{};
        tok.line = line;
        if (pos >= src.size()) {
            tok.kind = Tok::End;
            tok.text = "<eof>";
            return;
        }
        char c = src[pos];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos;
            while (pos < src.size() &&
                   (std::isalnum(static_cast<unsigned char>(src[pos])) ||
                    src[pos] == '_')) {
                ++pos;
            }
            tok.kind = Tok::Ident;
            tok.text = src.substr(start, pos - start);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            // Digits at `pos` as one decimal; overflow is an error, not
            // a wrap to the value modulo 2^64.
            auto decimal = [&] {
                uint64_t v = 0;
                while (pos < src.size() &&
                       std::isdigit(static_cast<unsigned char>(src[pos]))) {
                    uint64_t digit = static_cast<uint64_t>(src[pos] - '0');
                    if (v > (UINT64_MAX - digit) / 10) {
                        fatal("parse error at line ", line,
                              ": decimal literal does not fit in 64 bits");
                    }
                    v = v * 10 + digit;
                    ++pos;
                }
                return v;
            };
            uint64_t value = decimal();
            // W'dV sized constant.
            if (pos + 1 < src.size() && src[pos] == '\'' &&
                src[pos + 1] == 'd') {
                pos += 2;
                if (pos >= src.size() ||
                    !std::isdigit(static_cast<unsigned char>(src[pos]))) {
                    fatal("parse error at line ", line,
                          ": expected digits after 'd");
                }
                uint64_t v = decimal();
                tok.kind = Tok::SizedConst;
                tok.width = checkedWidth(value, "constant");
                tok.number = v;
                tok.text = std::to_string(value) + "'d" + std::to_string(v);
                return;
            }
            tok.kind = Tok::Number;
            tok.number = value;
            tok.text = std::to_string(value);
            return;
        }
        if (c == '"') {
            ++pos;
            size_t start = pos;
            while (pos < src.size() && src[pos] != '"')
                ++pos;
            if (pos >= src.size())
                fatal("parse error at line ", line, ": unterminated string");
            tok.kind = Tok::String;
            tok.text = src.substr(start, pos - start);
            ++pos;
            return;
        }
        // Multi-character symbols first.
        static const char *two_char[] = {"->", "==", "!=", "<=", ">=", "&&",
                                         "||"};
        for (const char *s : two_char) {
            if (src.compare(pos, 2, s) == 0) {
                tok.kind = Tok::Symbol;
                tok.text = s;
                pos += 2;
                return;
            }
        }
        tok.kind = Tok::Symbol;
        tok.text = std::string(1, c);
        ++pos;
    }

    const std::string &src;
    size_t pos = 0;
    int line = 1;
    Token tok;
};

class ProgramParser
{
  public:
    explicit ProgramParser(const std::string &src) : lex(src) {}

    Context
    parse()
    {
        Context ctx;
        while (lex.peek().kind != Tok::End) {
            if (isIdent("extern")) {
                parseExtern(ctx);
            } else if (isIdent("import")) {
                lex.next();
                expect(Tok::String);
                expectSymbol(";");
            } else if (isIdent("component")) {
                parseComponent(ctx);
            } else {
                lex.error("expected 'component', 'extern', or 'import'");
            }
        }
        return ctx;
    }

  private:
    Lexer lex;
    int depth = 0; ///< Nesting levels open (see Parser::kMaxNesting).

    /** One level of nesting, held while its recursive call runs. */
    struct Nest
    {
        explicit Nest(ProgramParser &p) : p(p)
        {
            if (++p.depth > Parser::kMaxNesting)
                p.lex.error("nesting deeper than " +
                            std::to_string(Parser::kMaxNesting) +
                            " levels");
        }
        ~Nest() { --p.depth; }
        ProgramParser &p;
    };

    bool
    isIdent(const std::string &word) const
    {
        return lex.peek().kind == Tok::Ident && lex.peek().text == word;
    }

    bool
    isSymbol(const std::string &sym) const
    {
        return lex.peek().kind == Tok::Symbol && lex.peek().text == sym;
    }

    Token
    expect(Tok kind)
    {
        if (lex.peek().kind != kind)
            lex.error("unexpected token");
        return lex.next();
    }

    void
    expectSymbol(const std::string &sym)
    {
        if (!isSymbol(sym))
            lex.error("expected '" + sym + "'");
        lex.next();
    }

    void
    expectIdent(const std::string &word)
    {
        if (!isIdent(word))
            lex.error("expected '" + word + "'");
        lex.next();
    }

    std::string
    ident()
    {
        return expect(Tok::Ident).text;
    }

    /** Attribute list `<"name"=value, ...>`, or empty. */
    Attributes
    attributes()
    {
        Attributes attrs;
        if (!isSymbol("<"))
            return attrs;
        lex.next();
        while (true) {
            std::string name = expect(Tok::String).text;
            expectSymbol("=");
            Token v = expect(Tok::Number);
            attrs.set(name, static_cast<int64_t>(v.number));
            if (isSymbol(",")) {
                lex.next();
                continue;
            }
            break;
        }
        expectSymbol(">");
        return attrs;
    }

    void
    parseExtern(Context &ctx)
    {
        expectIdent("extern");
        std::string file = expect(Tok::String).text;
        expectSymbol("{");
        while (isIdent("primitive")) {
            lex.next();
            PrimitiveDef def;
            def.name = ident();
            def.attrs = attributes();
            def.externFile = file;
            expectSymbol("[");
            if (!isSymbol("]")) {
                while (true) {
                    def.params.push_back(ident());
                    if (isSymbol(",")) {
                        lex.next();
                        continue;
                    }
                    break;
                }
            }
            expectSymbol("]");
            parsePrimPorts(def, Direction::Input);
            expectSymbol("->");
            parsePrimPorts(def, Direction::Output);
            expectSymbol(";");
            if (def.attrs.has(Attributes::staticAttr) ||
                !def.donePort.empty()) {
                def.attrs.set(Attributes::statefulAttr, 1);
            }
            ctx.primitives().add(def);
        }
        expectSymbol("}");
    }

    void
    parsePrimPorts(PrimitiveDef &def, Direction dir)
    {
        expectSymbol("(");
        if (!isSymbol(")")) {
            while (true) {
                PrimPortSpec spec;
                spec.dir = dir;
                while (isSymbol("@")) {
                    lex.next();
                    std::string marker = ident();
                    if (marker == "go")
                        def.goPort = "<pending>";
                    else if (marker == "done")
                        def.donePort = "<pending>";
                    else
                        lex.error("unknown port marker @" + marker);
                }
                spec.name = ident();
                if (def.goPort == "<pending>")
                    def.goPort = spec.name;
                if (def.donePort == "<pending>")
                    def.donePort = spec.name;
                expectSymbol(":");
                if (lex.peek().kind == Tok::Number) {
                    spec.fixedWidth =
                        checkedWidth(lex.next().number, "port ", spec.name);
                } else {
                    spec.widthParam = ident();
                }
                def.ports.push_back(spec);
                if (isSymbol(",")) {
                    lex.next();
                    continue;
                }
                break;
            }
        }
        expectSymbol(")");
    }

    void
    parseComponent(Context &ctx)
    {
        expectIdent("component");
        std::string name = ident();
        Attributes attrs = attributes();
        Component &comp = ctx.addComponent(name);
        comp.attrs() = attrs;

        expectSymbol("(");
        parseSignature(comp, Direction::Input);
        expectSymbol(")");
        expectSymbol("->");
        expectSymbol("(");
        parseSignature(comp, Direction::Output);
        expectSymbol(")");
        expectSymbol("{");

        if (isIdent("cells")) {
            lex.next();
            expectSymbol("{");
            while (!isSymbol("}"))
                parseCell(ctx, comp);
            expectSymbol("}");
        }
        if (isIdent("wires")) {
            lex.next();
            expectSymbol("{");
            while (!isSymbol("}")) {
                if (isIdent("group")) {
                    parseGroup(comp);
                } else {
                    comp.continuousAssignments().push_back(
                        parseAssignment());
                }
            }
            expectSymbol("}");
        }
        if (isIdent("control")) {
            lex.next();
            expectSymbol("{");
            std::vector<ControlPtr> stmts;
            while (!isSymbol("}"))
                stmts.push_back(parseControl());
            expectSymbol("}");
            if (stmts.empty())
                comp.setControl(std::make_unique<Empty>());
            else if (stmts.size() == 1)
                comp.setControl(std::move(stmts[0]));
            else
                comp.setControl(std::make_unique<Seq>(std::move(stmts)));
        }
        expectSymbol("}");
    }

    void
    parseSignature(Component &comp, Direction dir)
    {
        if (isSymbol(")"))
            return;
        while (true) {
            std::string pname = ident();
            expectSymbol(":");
            Width w = checkedWidth(expect(Tok::Number).number, "port ", pname);
            // go/done already exist implicitly.
            if (!comp.hasPort(pname)) {
                if (dir == Direction::Input)
                    comp.addInput(pname, w);
                else
                    comp.addOutput(pname, w);
            }
            if (isSymbol(",")) {
                lex.next();
                continue;
            }
            break;
        }
    }

    void
    parseCell(Context &ctx, Component &comp)
    {
        std::string cname = ident();
        Attributes attrs = attributes();
        expectSymbol("=");
        std::string type = ident();
        expectSymbol("(");
        std::vector<uint64_t> params;
        if (!isSymbol(")")) {
            while (true) {
                params.push_back(expect(Tok::Number).number);
                if (isSymbol(",")) {
                    lex.next();
                    continue;
                }
                break;
            }
        }
        expectSymbol(")");
        expectSymbol(";");
        Cell &cell = comp.addCell(cname, type, params, ctx);
        for (const auto &[k, v] : attrs.all())
            cell.attrs().set(k, v);
    }

    void
    parseGroup(Component &comp)
    {
        expectIdent("group");
        std::string gname = ident();
        Attributes attrs = attributes();
        Group &g = comp.addGroup(gname);
        g.attrs() = attrs;
        expectSymbol("{");
        while (!isSymbol("}"))
            g.add(parseAssignment());
        expectSymbol("}");
    }

    /**
     * A port reference or sized constant: `name`, `name.port`,
     * `name[hole]`, or `W'dV`.
     */
    PortRef
    parsePortRef()
    {
        if (lex.peek().kind == Tok::SizedConst) {
            Token t = lex.next();
            return constant(t.number, t.width);
        }
        std::string base = ident();
        if (isSymbol(".")) {
            lex.next();
            return cellPort(base, ident());
        }
        if (isSymbol("[")) {
            lex.next();
            std::string hole = ident();
            expectSymbol("]");
            return holePort(base, hole);
        }
        return thisPort(base);
    }

    // Guard grammar: or := and ('|' and)*, and := cmp ('&' cmp)*,
    // cmp := unary (op unary)?, unary := '!' unary | '(' or ')' | atom.
    GuardPtr
    parseGuardOr()
    {
        GuardPtr g = parseGuardAnd();
        while (isSymbol("|") || isSymbol("||")) {
            lex.next();
            g = Guard::disj(g, parseGuardAnd());
        }
        return g;
    }

    GuardPtr
    parseGuardAnd()
    {
        GuardPtr g = parseGuardCmp();
        while (isSymbol("&") || isSymbol("&&")) {
            lex.next();
            g = Guard::conj(g, parseGuardCmp());
        }
        return g;
    }

    std::optional<Guard::CmpOp>
    peekCmpOp()
    {
        if (lex.peek().kind != Tok::Symbol)
            return std::nullopt;
        const std::string &s = lex.peek().text;
        if (s == "==")
            return Guard::CmpOp::Eq;
        if (s == "!=")
            return Guard::CmpOp::Neq;
        if (s == "<")
            return Guard::CmpOp::Lt;
        if (s == ">")
            return Guard::CmpOp::Gt;
        if (s == "<=")
            return Guard::CmpOp::Leq;
        if (s == ">=")
            return Guard::CmpOp::Geq;
        return std::nullopt;
    }

    GuardPtr
    parseGuardCmp()
    {
        if (isSymbol("!")) {
            lex.next();
            Nest nest(*this);
            return Guard::negate(parseGuardCmp());
        }
        if (isSymbol("(")) {
            lex.next();
            Nest nest(*this);
            GuardPtr g = parseGuardOr();
            expectSymbol(")");
            return g;
        }
        PortRef lhs = parsePortRef();
        if (auto op = peekCmpOp()) {
            lex.next();
            PortRef rhs;
            if (isSymbol("(")) {
                lex.error("parenthesized comparison operands unsupported");
            }
            rhs = parsePortRef();
            return Guard::cmp(*op, lhs, rhs);
        }
        if (lhs.isConst()) {
            if (lhs.width == 1 && lhs.value == 1)
                return Guard::trueGuard();
            return Guard::cmp(Guard::CmpOp::Eq, lhs, constant(1, 1));
        }
        return Guard::fromPort(lhs);
    }

    /** Try to view a parsed guard as an assignment source operand. */
    std::optional<PortRef>
    guardAsPort(const GuardPtr &g)
    {
        if (g->kind() == Guard::Kind::Port)
            return g->port();
        if (g->isTrue())
            return constant(1, 1);
        return std::nullopt;
    }

    Assignment
    parseAssignment()
    {
        PortRef dst = parsePortRef();
        expectSymbol("=");
        // Either `src ;` or `guard ? src ;`.
        if (lex.peek().kind == Tok::SizedConst) {
            Token t = lex.next();
            PortRef c = constant(t.number, t.width);
            if (isSymbol(";")) {
                lex.next();
                return Assignment(dst, c);
            }
            // The constant begins a guard (e.g. comparisons are illegal
            // with constant lhs in practice, but handle `1'd1 ? x`).
            GuardPtr g;
            if (auto op = peekCmpOp()) {
                lex.next();
                g = Guard::cmp(*op, c, parsePortRef());
            } else {
                g = c.width == 1 && c.value == 1 ? Guard::trueGuard()
                                                 : Guard::fromPort(c);
            }
            while (!isSymbol("?")) {
                if (isSymbol("&") || isSymbol("&&")) {
                    lex.next();
                    g = Guard::conj(g, parseGuardCmp());
                } else if (isSymbol("|") || isSymbol("||")) {
                    lex.next();
                    g = Guard::disj(g, parseGuardAnd());
                } else {
                    lex.error("expected '?' in guarded assignment");
                }
            }
            lex.next();
            PortRef src = parsePortRef();
            expectSymbol(";");
            return Assignment(dst, src, g);
        }
        GuardPtr g = parseGuardOr();
        if (isSymbol("?")) {
            lex.next();
            PortRef src = parsePortRef();
            expectSymbol(";");
            return Assignment(dst, src, g);
        }
        expectSymbol(";");
        auto src = guardAsPort(g);
        if (!src)
            lex.error("expected a port or constant on assignment rhs");
        return Assignment(dst, *src);
    }

    ControlPtr
    parseControl()
    {
        Nest nest(*this);
        if (isIdent("seq") || isIdent("par")) {
            bool is_seq = lex.next().text == "seq";
            Attributes attrs = attributes();
            expectSymbol("{");
            std::vector<ControlPtr> stmts;
            while (!isSymbol("}"))
                stmts.push_back(parseControl());
            expectSymbol("}");
            ControlPtr node;
            if (is_seq)
                node = std::make_unique<Seq>(std::move(stmts));
            else
                node = std::make_unique<Par>(std::move(stmts));
            node->attrs() = attrs;
            return node;
        }
        if (isIdent("if")) {
            lex.next();
            PortRef port = parsePortRef();
            std::string cond;
            if (isIdent("with")) {
                lex.next();
                cond = ident();
            }
            expectSymbol("{");
            std::vector<ControlPtr> t;
            while (!isSymbol("}"))
                t.push_back(parseControl());
            expectSymbol("}");
            ControlPtr tb = wrap(std::move(t));
            ControlPtr fb = std::make_unique<Empty>();
            if (isIdent("else")) {
                lex.next();
                expectSymbol("{");
                std::vector<ControlPtr> f;
                while (!isSymbol("}"))
                    f.push_back(parseControl());
                expectSymbol("}");
                fb = wrap(std::move(f));
            }
            return std::make_unique<If>(port, cond, std::move(tb),
                                        std::move(fb));
        }
        if (isIdent("while")) {
            lex.next();
            PortRef port = parsePortRef();
            std::string cond;
            if (isIdent("with")) {
                lex.next();
                cond = ident();
            }
            expectSymbol("{");
            std::vector<ControlPtr> body;
            while (!isSymbol("}"))
                body.push_back(parseControl());
            expectSymbol("}");
            return std::make_unique<While>(port, cond,
                                           wrap(std::move(body)));
        }
        // Group enable; the trailing semicolon is optional before a
        // closing brace (the paper writes `seq { one; two }`).
        std::string gname = ident();
        if (isSymbol(";"))
            lex.next();
        else if (!isSymbol("}"))
            lex.error("expected ';' after group enable");
        return std::make_unique<Enable>(gname);
    }

    static ControlPtr
    wrap(std::vector<ControlPtr> stmts)
    {
        if (stmts.empty())
            return std::make_unique<Empty>();
        if (stmts.size() == 1)
            return std::move(stmts[0]);
        return std::make_unique<Seq>(std::move(stmts));
    }
};

} // namespace

Context
Parser::parseProgram(const std::string &source)
{
    return ProgramParser(source).parse();
}

} // namespace calyx
