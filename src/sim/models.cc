#include "sim/models.h"

#include <optional>

#include "ir/primitives.h"
#include "support/bits.h"
#include "support/error.h"

namespace calyx::sim {

namespace {

/** Stateless one-output model: std_const. */
class ConstModel final : public PrimModel
{
  public:
    ConstModel(uint32_t out, uint64_t value) : out(out), value(value) {}

    void
    evalComb(const uint64_t *, uint64_t *o) const override
    {
        o[out] = value;
    }

    ModelDeps
    deps() const override
    {
        return {{out}, {}, false};
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<ConstModel>(*this);
    }

  private:
    uint32_t out;
    uint64_t value;
};

/** Unary combinational ops: std_wire, std_not, std_slice, std_pad. */
class UnaryModel final : public PrimModel
{
  public:
    enum class Op { Wire, Not, Slice, Pad };

    UnaryModel(Op op, uint32_t in, uint32_t out, Width out_width)
        : op(op), in(in), out(out), outWidth(out_width)
    {}

    void
    evalComb(const uint64_t *i, uint64_t *o) const override
    {
        uint64_t v = i[in];
        switch (op) {
          case Op::Wire:
          case Op::Pad:
          case Op::Slice:
            o[out] = truncate(v, outWidth);
            break;
          case Op::Not:
            o[out] = truncate(~v, outWidth);
            break;
        }
    }

    ModelDeps
    deps() const override
    {
        return {{out}, {{in, {out}}}, false};
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<UnaryModel>(*this);
    }

  private:
    Op op;
    uint32_t in, out;
    Width outWidth;
};

/** Binary combinational ops (add, sub, logic, shifts). */
class BinModel final : public PrimModel
{
  public:
    enum class Op { Add, Sub, And, Or, Xor, Lsh, Rsh };

    BinModel(Op op, uint32_t l, uint32_t r, uint32_t out, Width width)
        : op(op), l(l), r(r), out(out), width(width)
    {}

    void
    evalComb(const uint64_t *i, uint64_t *o) const override
    {
        uint64_t a = i[l], b = i[r], v = 0;
        switch (op) {
          case Op::Add:
            v = a + b;
            break;
          case Op::Sub:
            v = a - b;
            break;
          case Op::And:
            v = a & b;
            break;
          case Op::Or:
            v = a | b;
            break;
          case Op::Xor:
            v = a ^ b;
            break;
          case Op::Lsh:
            v = b >= 64 ? 0 : a << b;
            break;
          case Op::Rsh:
            v = b >= 64 ? 0 : a >> b;
            break;
        }
        o[out] = truncate(v, width);
    }

    ModelDeps
    deps() const override
    {
        return {{out}, {{l, {out}}, {r, {out}}}, false};
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<BinModel>(*this);
    }

  private:
    Op op;
    uint32_t l, r, out;
    Width width;
};

/** Comparison ops with 1-bit outputs. All comparisons are unsigned. */
class CmpModel final : public PrimModel
{
  public:
    enum class Op { Eq, Neq, Lt, Gt, Le, Ge };

    CmpModel(Op op, uint32_t l, uint32_t r, uint32_t out)
        : op(op), l(l), r(r), out(out)
    {}

    void
    evalComb(const uint64_t *i, uint64_t *o) const override
    {
        uint64_t a = i[l], b = i[r];
        bool v = false;
        switch (op) {
          case Op::Eq:
            v = a == b;
            break;
          case Op::Neq:
            v = a != b;
            break;
          case Op::Lt:
            v = a < b;
            break;
          case Op::Gt:
            v = a > b;
            break;
          case Op::Le:
            v = a <= b;
            break;
          case Op::Ge:
            v = a >= b;
            break;
        }
        o[out] = v ? 1 : 0;
    }

    ModelDeps
    deps() const override
    {
        return {{out}, {{l, {out}}, {r, {out}}}, false};
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<CmpModel>(*this);
    }

  private:
    Op op;
    uint32_t l, r, out;
};

/** std_reg: one-cycle write with a registered done pulse. */
class RegModel final : public PrimModel
{
  public:
    RegModel(uint32_t in, uint32_t write_en, uint32_t out, uint32_t done,
             Width width)
        : in(in), writeEn(write_en), out(out), done(done), width(width)
    {}

    void
    evalComb(const uint64_t *, uint64_t *o) const override
    {
        o[out] = value;
        o[done] = donePulse ? 1 : 0;
    }

    void
    clock(const uint64_t *vals) override
    {
        if (vals[writeEn] & 1) {
            value = truncate(vals[in], width);
            donePulse = true;
        } else {
            donePulse = false;
        }
    }

    void
    reset() override
    {
        value = 0;
        donePulse = false;
    }

    std::optional<uint64_t> registerValue() const override { return value; }
    void setRegisterValue(uint64_t v) override
    {
        value = truncate(v, width);
    }
    uint64_t *registerStorage() override { return &value; }

    /// `in`/`write_en` are sampled only at the clock edge: no comb edges.
    ModelDeps
    deps() const override
    {
        return {{out, done}, {}, true};
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<RegModel>(*this);
    }

  private:
    uint32_t in, writeEn, out, done;
    Width width;
    uint64_t value = 0;
    bool donePulse = false;
};

/**
 * std_mem_d1 / std_mem_d2 with combinational reads and 1-cycle writes.
 * Dual-ported: port 0 reads/writes, port 1 is read-only.
 */
class MemModel final : public PrimModel
{
  public:
    MemModel(std::vector<uint32_t> addrs, std::vector<uint32_t> addrs1,
             std::vector<uint64_t> dims, uint32_t write_data,
             uint32_t write_en, uint32_t read_data, uint32_t read_data1,
             uint32_t done, Width width, const std::string &name)
        : addrs(std::move(addrs)), addrs1(std::move(addrs1)),
          dims(std::move(dims)), writeData(write_data), writeEn(write_en),
          readData(read_data), readData1(read_data1), done(done),
          width(width), name(name)
    {
        uint64_t size = 1;
        for (uint64_t d : this->dims) // parameter was moved from
            size *= d;
        data.assign(size, 0);
    }

    uint64_t
    flatAddr(const uint64_t *vals, const std::vector<uint32_t> &ports)
        const
    {
        uint64_t addr = 0;
        for (size_t i = 0; i < ports.size(); ++i)
            addr = addr * dims[i] + vals[ports[i]];
        return addr;
    }

    void
    evalComb(const uint64_t *i, uint64_t *o) const override
    {
        uint64_t addr = flatAddr(i, addrs);
        o[readData] = addr < data.size() ? data[addr] : 0;
        uint64_t addr1 = flatAddr(i, addrs1);
        o[readData1] = addr1 < data.size() ? data[addr1] : 0;
        o[done] = donePulse ? 1 : 0;
    }

    void
    clock(const uint64_t *vals) override
    {
        if (vals[writeEn] & 1) {
            uint64_t addr = flatAddr(vals, addrs);
            if (addr >= data.size()) {
                fatal("memory ", name, ": write to out-of-bounds address ",
                      addr, " (size ", data.size(), ")");
            }
            data[addr] = truncate(vals[writeData], width);
            donePulse = true;
        } else {
            donePulse = false;
        }
    }

    void
    reset() override
    {
        donePulse = false;
    }

    std::vector<uint64_t> *memory() override { return &data; }

    /// Reads are combinational in the address ports; writes are clocked.
    ModelDeps
    deps() const override
    {
        ModelDeps d;
        d.outputs = {readData, readData1, done};
        for (uint32_t a : addrs)
            d.combEdges.push_back({a, {readData}});
        for (uint32_t a : addrs1)
            d.combEdges.push_back({a, {readData1}});
        d.stateful = true;
        return d;
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<MemModel>(*this);
    }

  private:
    std::vector<uint32_t> addrs, addrs1;
    std::vector<uint64_t> dims;
    uint32_t writeData, writeEn, readData, readData1, done;
    Width width;
    std::string name;
    std::vector<uint64_t> data;
    bool donePulse = false;
};

/**
 * Fixed-latency pipelined binary operators (std_mult_pipe, std_div_pipe).
 * Results latch when the countdown expires and persist on the outputs.
 */
class PipeModel final : public PrimModel
{
  public:
    enum class Op { Mult, DivQuotRem };

    PipeModel(Op op, int64_t latency, uint32_t l, uint32_t r, uint32_t go,
              std::vector<uint32_t> outs, uint32_t done, Width width)
        : op(op), latency(latency), l(l), r(r), go(go),
          outs(std::move(outs)), done(done), width(width)
    {
        results.assign(this->outs.size(), 0);
    }

    void
    evalComb(const uint64_t *, uint64_t *o) const override
    {
        for (size_t i = 0; i < outs.size(); ++i)
            o[outs[i]] = results[i];
        o[done] = donePulse ? 1 : 0;
    }

    ModelDeps
    deps() const override
    {
        ModelDeps d;
        d.outputs = outs;
        d.outputs.push_back(done);
        d.stateful = true;
        return d;
    }

    void
    clock(const uint64_t *vals) override
    {
        donePulse = false;
        if (busy) {
            if (--remaining == 0) {
                finish();
                busy = false;
                donePulse = true;
            }
        } else if (vals[go] & 1) {
            opA = vals[l];
            opB = vals[r];
            if (latency <= 1) {
                finish();
                donePulse = true;
            } else {
                busy = true;
                remaining = latency - 1;
            }
        }
    }

    void
    reset() override
    {
        busy = false;
        donePulse = false;
        remaining = 0;
        results.assign(outs.size(), 0);
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<PipeModel>(*this);
    }

  private:
    void
    finish()
    {
        switch (op) {
          case Op::Mult:
            results[0] = truncate(opA * opB, width);
            break;
          case Op::DivQuotRem:
            if (opB == 0) {
                // Deterministic stand-in for hardware "undefined".
                results[0] = truncate(~uint64_t(0), width);
                results[1] = truncate(opA, width);
            } else {
                results[0] = truncate(opA / opB, width);
                results[1] = truncate(opA % opB, width);
            }
            break;
        }
    }

    Op op;
    int64_t latency;
    uint32_t l, r, go;
    std::vector<uint32_t> outs;
    uint32_t done;
    Width width;
    bool busy = false, donePulse = false;
    int64_t remaining = 0;
    uint64_t opA = 0, opB = 0;
    std::vector<uint64_t> results;
};

/**
 * std_sqrt: iterative integer square root with data-dependent latency
 * (one cycle per result bit pair plus one). Exercises latency-insensitive
 * compilation: this primitive carries no "static" attribute.
 */
class SqrtModel final : public PrimModel
{
  public:
    SqrtModel(uint32_t in, uint32_t go, uint32_t out, uint32_t done,
              Width width)
        : in(in), go(go), out(out), done(done), width(width)
    {}

    void
    evalComb(const uint64_t *, uint64_t *o) const override
    {
        o[out] = result;
        o[done] = donePulse ? 1 : 0;
    }

    ModelDeps
    deps() const override
    {
        return {{out, done}, {}, true};
    }

    void
    clock(const uint64_t *vals) override
    {
        donePulse = false;
        if (busy) {
            if (--remaining == 0) {
                result = truncate(isqrt(operand), width);
                busy = false;
                donePulse = true;
            }
        } else if (vals[go] & 1) {
            operand = vals[in];
            int64_t latency = 1 + bitsNeeded(operand) / 2;
            busy = true;
            remaining = latency;
        }
    }

    void
    reset() override
    {
        busy = false;
        donePulse = false;
        result = 0;
    }

    std::unique_ptr<PrimModel>
    clone() const override
    {
        return std::make_unique<SqrtModel>(*this);
    }

  private:
    uint32_t in, go, out, done;
    Width width;
    bool busy = false, donePulse = false;
    int64_t remaining = 0;
    uint64_t operand = 0, result = 0;
};

} // namespace

uint64_t
isqrt(uint64_t v)
{
    if (v == 0)
        return 0;
    uint64_t x = v, y = (x + 1) / 2;
    while (y < x) {
        x = y;
        y = (x + v / x) / 2;
    }
    return x;
}

std::unique_ptr<PrimModel>
makeModel(const Cell &cell, const PortResolver &resolve)
{
    const std::string &t = cell.type();
    const auto &params = cell.params();
    auto w = [&params](size_t i) { return static_cast<Width>(params[i]); };

    if (t == "std_const") {
        return std::make_unique<ConstModel>(resolve("out"),
                                            truncate(params[1], w(0)));
    }
    if (t == "std_wire") {
        return std::make_unique<UnaryModel>(UnaryModel::Op::Wire,
                                            resolve("in"), resolve("out"),
                                            w(0));
    }
    if (t == "std_not") {
        return std::make_unique<UnaryModel>(UnaryModel::Op::Not,
                                            resolve("in"), resolve("out"),
                                            w(0));
    }
    if (t == "std_slice" || t == "std_pad") {
        return std::make_unique<UnaryModel>(
            t == "std_slice" ? UnaryModel::Op::Slice : UnaryModel::Op::Pad,
            resolve("in"), resolve("out"), w(1));
    }
    static const std::map<std::string, BinModel::Op> bin_ops = {
        {"std_add", BinModel::Op::Add}, {"std_sub", BinModel::Op::Sub},
        {"std_and", BinModel::Op::And}, {"std_or", BinModel::Op::Or},
        {"std_xor", BinModel::Op::Xor}, {"std_lsh", BinModel::Op::Lsh},
        {"std_rsh", BinModel::Op::Rsh},
    };
    if (auto it = bin_ops.find(t); it != bin_ops.end()) {
        return std::make_unique<BinModel>(it->second, resolve("left"),
                                          resolve("right"), resolve("out"),
                                          w(0));
    }
    static const std::map<std::string, CmpModel::Op> cmp_ops = {
        {"std_eq", CmpModel::Op::Eq}, {"std_neq", CmpModel::Op::Neq},
        {"std_lt", CmpModel::Op::Lt}, {"std_gt", CmpModel::Op::Gt},
        {"std_le", CmpModel::Op::Le}, {"std_ge", CmpModel::Op::Ge},
    };
    if (auto it = cmp_ops.find(t); it != cmp_ops.end()) {
        return std::make_unique<CmpModel>(it->second, resolve("left"),
                                          resolve("right"), resolve("out"));
    }
    if (t == "std_reg") {
        return std::make_unique<RegModel>(resolve("in"), resolve("write_en"),
                                          resolve("out"), resolve("done"),
                                          w(0));
    }
    if (t == "std_mem_d1") {
        return std::make_unique<MemModel>(
            std::vector<uint32_t>{resolve("addr0")},
            std::vector<uint32_t>{resolve("addr0_1")},
            std::vector<uint64_t>{params[1]}, resolve("write_data"),
            resolve("write_en"), resolve("read_data"),
            resolve("read_data_1"), resolve("done"), w(0), cell.name());
    }
    if (t == "std_mem_d2") {
        return std::make_unique<MemModel>(
            std::vector<uint32_t>{resolve("addr0"), resolve("addr1")},
            std::vector<uint32_t>{resolve("addr0_1"),
                                  resolve("addr1_1")},
            std::vector<uint64_t>{params[1], params[2]},
            resolve("write_data"), resolve("write_en"),
            resolve("read_data"), resolve("read_data_1"),
            resolve("done"), w(0), cell.name());
    }
    if (t == "std_mult_pipe") {
        return std::make_unique<PipeModel>(
            PipeModel::Op::Mult, multLatency, resolve("left"),
            resolve("right"), resolve("go"),
            std::vector<uint32_t>{resolve("out")}, resolve("done"), w(0));
    }
    if (t == "std_div_pipe") {
        return std::make_unique<PipeModel>(
            PipeModel::Op::DivQuotRem, divLatency, resolve("left"),
            resolve("right"), resolve("go"),
            std::vector<uint32_t>{resolve("out_quotient"),
                                  resolve("out_remainder")},
            resolve("done"), w(0));
    }
    if (t == "std_sqrt") {
        return std::make_unique<SqrtModel>(resolve("in"), resolve("go"),
                                           resolve("out"), resolve("done"),
                                           w(0));
    }
    fatal("no simulation model for primitive ", t);
}

} // namespace calyx::sim
