#include "frontends/dahlia/parser.h"

#include "frontends/dahlia/lexer.h"
#include "support/error.h"

namespace calyx::dahlia {

namespace {

class DahliaParser
{
  public:
    explicit DahliaParser(const std::string &src) : toks(tokenize(src)) {}

    Program
    parse()
    {
        Program p;
        while (isIdent("decl")) {
            next();
            Decl d;
            d.name = ident();
            expectSymbol(":");
            d.type = type();
            expectSymbol(";");
            if (!d.type.isMemory())
                err("decl must declare a memory (add dimensions)");
            p.decls.push_back(std::move(d));
        }
        p.body = composition();
        if (peek().kind != Tok::End)
            err("trailing input after program body");
        return p;
    }

  private:
    std::vector<Token> toks;
    size_t pos = 0;
    int depth = 0; ///< Nesting levels open (see kMaxNesting).

    /** One level of nesting, held while its recursive call runs. */
    struct Nest
    {
        explicit Nest(DahliaParser &p) : p(p)
        {
            if (++p.depth > kMaxNesting)
                p.err("nesting deeper than " + std::to_string(kMaxNesting) +
                      " levels");
        }
        ~Nest() { --p.depth; }
        DahliaParser &p;
    };

    const Token &peek() const { return toks[pos]; }
    Token
    next()
    {
        return toks[pos++];
    }

    [[noreturn]] void
    err(const std::string &msg) const
    {
        fatal("dahlia parse error at line ", peek().line, ": ", msg,
              " (near '", peek().text, "')");
    }

    bool
    isIdent(const std::string &s) const
    {
        return peek().kind == Tok::Ident && peek().text == s;
    }

    bool
    isSymbol(const std::string &s) const
    {
        return peek().kind == Tok::Symbol && peek().text == s;
    }

    void
    expectSymbol(const std::string &s)
    {
        if (!isSymbol(s))
            err("expected '" + s + "'");
        next();
    }

    std::string
    ident()
    {
        if (peek().kind != Tok::Ident)
            err("expected identifier");
        return next().text;
    }

    uint64_t
    number()
    {
        if (peek().kind != Tok::Number)
            err("expected number");
        return next().number;
    }

    Type
    type()
    {
        Type t;
        if (!isIdent("ubit"))
            err("expected type 'ubit<...>'");
        next();
        expectSymbol("<");
        t.width = static_cast<Width>(number());
        expectSymbol(">");
        while (isSymbol("[")) {
            next();
            uint64_t dim = number();
            uint64_t bank = 1;
            if (isIdent("bank")) {
                next();
                bank = number();
            }
            expectSymbol("]");
            t.dims.push_back(dim);
            t.banks.push_back(bank);
        }
        return t;
    }

    /**
     * Composition inside a block: `;`-separated runs form ParComp,
     * `---`-separated runs form SeqComp; `---` binds loosest.
     */
    StmtPtr
    composition()
    {
        std::vector<StmtPtr> seq_items;
        std::vector<StmtPtr> par_items;
        par_items.push_back(statement());
        while (true) {
            if (isSymbol(";")) {
                next();
                if (atBlockEnd())
                    break; // trailing separator
                if (isSymbol("---"))
                    continue; // `a; --- b`: `;` acted as a terminator
                par_items.push_back(statement());
            } else if (isSymbol("---")) {
                next();
                seq_items.push_back(wrapPar(std::move(par_items)));
                par_items.clear();
                par_items.push_back(statement());
            } else {
                break;
            }
        }
        seq_items.push_back(wrapPar(std::move(par_items)));
        if (seq_items.size() == 1)
            return std::move(seq_items[0]);
        return Stmt::seq(std::move(seq_items));
    }

    bool
    atBlockEnd() const
    {
        return peek().kind == Tok::End || isSymbol("}");
    }

    static StmtPtr
    wrapPar(std::vector<StmtPtr> items)
    {
        if (items.size() == 1)
            return std::move(items[0]);
        return Stmt::par(std::move(items));
    }

    StmtPtr
    block()
    {
        expectSymbol("{");
        Nest nest(*this);
        StmtPtr body = composition();
        expectSymbol("}");
        return body;
    }

    StmtPtr
    statement()
    {
        if (isIdent("let")) {
            next();
            std::string name = ident();
            expectSymbol(":");
            Type t = type();
            if (t.isMemory())
                err("let declares scalars; use decl for memories");
            ExprPtr init;
            if (isSymbol("=")) {
                next();
                init = expression();
            }
            return Stmt::let(std::move(name), t, std::move(init));
        }
        if (isIdent("if")) {
            next();
            expectSymbol("(");
            ExprPtr cond = expression();
            expectSymbol(")");
            StmtPtr t = block();
            StmtPtr f;
            if (isIdent("else")) {
                next();
                f = block();
            }
            return Stmt::ifStmt(std::move(cond), std::move(t),
                                std::move(f));
        }
        if (isIdent("while")) {
            next();
            expectSymbol("(");
            ExprPtr cond = expression();
            expectSymbol(")");
            return Stmt::whileStmt(std::move(cond), block());
        }
        if (isIdent("for")) {
            next();
            expectSymbol("(");
            if (!isIdent("let"))
                err("expected 'let' in for header");
            next();
            std::string it = ident();
            expectSymbol(":");
            Type t = type();
            expectSymbol("=");
            uint64_t lo = number();
            expectSymbol("..");
            uint64_t hi = number();
            expectSymbol(")");
            uint64_t unroll = 1;
            if (isIdent("unroll")) {
                next();
                unroll = number();
            }
            if (hi < lo)
                err("for range is empty");
            StmtPtr body = block();
            StmtPtr combine;
            if (isIdent("combine")) {
                next();
                combine = block();
            }
            StmtPtr node = Stmt::forStmt(std::move(it), t, lo, hi,
                                         unroll, std::move(body));
            node->combine = std::move(combine);
            return node;
        }
        if (isSymbol("{"))
            return block();

        // lval := expr
        ExprPtr lval = primary();
        if (lval->kind != Expr::Kind::Var &&
            lval->kind != Expr::Kind::Access) {
            err("expected assignable expression before ':='");
        }
        expectSymbol(":=");
        ExprPtr rhs = expression();
        return Stmt::assign(std::move(lval), std::move(rhs));
    }

    // Expression precedence climbing. Levels (loosest first):
    // || , && , | , ^ , & , ==/!= , </>/<=/>= , <</>> , +/- , */ / %.
    struct OpInfo
    {
        BinOp op;
        int prec;
    };

    bool
    peekOp(OpInfo &info) const
    {
        if (peek().kind != Tok::Symbol)
            return false;
        const std::string &s = peek().text;
        static const std::pair<const char *, OpInfo> table[] = {
            {"||", {BinOp::Or, 1}},  {"&&", {BinOp::And, 2}},
            {"|", {BinOp::Or, 3}},   {"^", {BinOp::Xor, 4}},
            {"&", {BinOp::And, 5}},  {"==", {BinOp::Eq, 6}},
            {"!=", {BinOp::Ne, 6}},  {"<", {BinOp::Lt, 7}},
            {">", {BinOp::Gt, 7}},   {"<=", {BinOp::Le, 7}},
            {">=", {BinOp::Ge, 7}},  {"<<", {BinOp::Lsh, 8}},
            {">>", {BinOp::Rsh, 8}}, {"+", {BinOp::Add, 9}},
            {"-", {BinOp::Sub, 9}},  {"*", {BinOp::Mul, 10}},
            {"/", {BinOp::Div, 10}}, {"%", {BinOp::Mod, 10}},
        };
        for (const auto &[text, i] : table) {
            if (s == text) {
                info = i;
                return true;
            }
        }
        return false;
    }

    ExprPtr
    expression(int min_prec = 1)
    {
        ExprPtr lhs = primary();
        OpInfo info;
        while (peekOp(info) && info.prec >= min_prec) {
            next();
            ExprPtr rhs = expression(info.prec + 1);
            lhs = Expr::bin(info.op, std::move(lhs), std::move(rhs));
        }
        return lhs;
    }

    ExprPtr
    primary()
    {
        if (peek().kind == Tok::Number)
            return Expr::num(next().number);
        if (isSymbol("(")) {
            next();
            Nest nest(*this);
            ExprPtr e = expression();
            expectSymbol(")");
            return e;
        }
        if (isIdent("sqrt")) {
            next();
            expectSymbol("(");
            Nest nest(*this);
            ExprPtr e = expression();
            expectSymbol(")");
            return Expr::sqrt(std::move(e));
        }
        if (peek().kind != Tok::Ident)
            err("expected expression");
        std::string name = next().text;
        if (isSymbol("[")) {
            std::vector<ExprPtr> indices;
            while (isSymbol("[")) {
                next();
                Nest nest(*this);
                indices.push_back(expression());
                expectSymbol("]");
            }
            return Expr::access(std::move(name), std::move(indices));
        }
        return Expr::var(std::move(name));
    }
};

} // namespace

Program
parse(const std::string &source)
{
    return DahliaParser(source).parse();
}

} // namespace calyx::dahlia
