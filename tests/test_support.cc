#include <gtest/gtest.h>

#include <sstream>

#include "support/bits.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/subprocess.h"
#include "support/text.h"

namespace calyx {
namespace {

TEST(Bits, BitMask)
{
    EXPECT_EQ(bitMask(0), 0u);
    EXPECT_EQ(bitMask(1), 1u);
    EXPECT_EQ(bitMask(2), 3u);
    EXPECT_EQ(bitMask(8), 255u);
    EXPECT_EQ(bitMask(32), 0xFFFFFFFFu);
    EXPECT_EQ(bitMask(64), ~uint64_t(0));
    EXPECT_EQ(bitMask(100), ~uint64_t(0));
}

TEST(Bits, Truncate)
{
    EXPECT_EQ(truncate(0xFF, 4), 0xFu);
    EXPECT_EQ(truncate(0x100, 8), 0u);
    EXPECT_EQ(truncate(5, 32), 5u);
    EXPECT_EQ(truncate(~uint64_t(0), 1), 1u);
}

TEST(Bits, BitsNeeded)
{
    EXPECT_EQ(bitsNeeded(0), 1u);
    EXPECT_EQ(bitsNeeded(1), 1u);
    EXPECT_EQ(bitsNeeded(2), 2u);
    EXPECT_EQ(bitsNeeded(3), 2u);
    EXPECT_EQ(bitsNeeded(4), 3u);
    EXPECT_EQ(bitsNeeded(7), 3u);
    EXPECT_EQ(bitsNeeded(8), 4u);
    EXPECT_EQ(bitsNeeded(255), 8u);
    EXPECT_EQ(bitsNeeded(256), 9u);
}

TEST(Bits, FsmWidth)
{
    // A seq with n children needs states 0..n.
    EXPECT_EQ(fsmWidth(2), 2u);
    EXPECT_EQ(fsmWidth(3), 2u);
    EXPECT_EQ(fsmWidth(4), 3u);
}

TEST(Errors, FatalThrows)
{
    EXPECT_THROW(fatal("boom: ", 42), Error);
    try {
        fatal("value is ", 7);
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "value is 7");
    }
}

TEST(Text, CountLines)
{
    EXPECT_EQ(countLines(""), 0);
    EXPECT_EQ(countLines("no newline"), 0);
    EXPECT_EQ(countLines("a\nb\n"), 2);
    EXPECT_EQ(countLines("a\nb"), 1);
}

TEST(Text, EditDistance)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("verilog", "verilig"), 1u);
}

TEST(Text, SuggestClosest)
{
    std::vector<std::string> names = {"verilog", "firrtl", "dot"};
    EXPECT_EQ(suggestClosest("verilig", names), "verilog");
    EXPECT_EQ(suggestClosest("frrtl", names), "firrtl");
    EXPECT_EQ(suggestClosest("zzzzzzzz", names), "");
    EXPECT_EQ(suggestClosest("x", {}), "");
}

TEST(Hash, ContentDigest)
{
    // Deterministic, 32 hex chars, and distinct across tiny edits —
    // the properties the compiled-module cache keys on.
    std::string d = contentDigest("cppsim module body");
    EXPECT_EQ(d.size(), 32u);
    EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_EQ(d, contentDigest("cppsim module body"));
    EXPECT_NE(d, contentDigest("cppsim module body "));
    EXPECT_NE(d, contentDigest(""));
    EXPECT_FALSE(contentHash("a") == contentHash("b"));
}

TEST(Subprocess, RunAndFind)
{
    // `sh` exists on any host this suite runs on.
    std::string sh = findProgram("sh");
    ASSERT_FALSE(sh.empty());
    EXPECT_EQ(sh[0], '/');
    EXPECT_EQ(findProgram("no-such-program-zzz"), "");

    ProcessResult ok = runProcess({sh, "-c", "echo out; echo err >&2"});
    EXPECT_TRUE(ok.ok());
    // stdout and stderr are both captured (interleaved).
    EXPECT_NE(ok.output.find("out"), std::string::npos);
    EXPECT_NE(ok.output.find("err"), std::string::npos);

    ProcessResult bad = runProcess({sh, "-c", "exit 3"});
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.exitCode, 3);
}

TEST(Json, BuildAndWrite)
{
    json::Value obj = json::Value::object();
    obj.set("name", json::Value::str("r0"));
    obj.set("width", json::Value::number(32));
    obj.set("memory", json::Value::boolean(false));
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(1));
    arr.push(json::Value::number(2));
    obj.set("params", std::move(arr));

    json::Value parsed = json::parse(obj.str());
    EXPECT_EQ(parsed.at("name").asStr(), "r0");
    EXPECT_EQ(parsed.at("width").asNum(), 32u);
    EXPECT_FALSE(parsed.at("memory").asBool());
    EXPECT_EQ(parsed.at("params").items().size(), 2u);
    EXPECT_EQ(parsed.at("params").items()[1].asNum(), 2u);
    EXPECT_EQ(parsed.find("missing"), nullptr);
    EXPECT_THROW(parsed.at("missing"), Error);
}

TEST(Json, StringEscaping)
{
    json::Value v = json::Value::str("a\"b\\c\nd\te");
    json::Value parsed = json::parse(v.str());
    EXPECT_EQ(parsed.asStr(), "a\"b\\c\nd\te");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(json::parse(""), Error);
    EXPECT_THROW(json::parse("{"), Error);
    EXPECT_THROW(json::parse("[1, 2,]"), Error);
    EXPECT_THROW(json::parse("{\"a\": 1} trailing"), Error);
    EXPECT_THROW(json::parse("18446744073709551616"), Error); // 2^64
    EXPECT_THROW(json::parse("1."), Error);
    EXPECT_THROW(json::parse("1e"), Error);
    EXPECT_THROW(json::Value::number(1).asStr(), Error);
    // Reals and negatives parse since the profiler's report envelope
    // (obs/report.h) started carrying them.
    EXPECT_DOUBLE_EQ(json::parse("1.5").asReal(), 1.5);
    EXPECT_DOUBLE_EQ(json::parse("-3").asReal(), -3.0);
}

/** `n` nested arrays around nothing: `[[...]]`. */
std::string
nestedArrays(size_t n)
{
    return std::string(n, '[') + std::string(n, ']');
}

TEST(Json, NestingDeeperThanTheLimitIsAnError)
{
    // The parser recurses once per level. The deepest document it
    // accepts must still fit the stack (the sanitizer job runs this
    // with its larger frames), and one level more is an Error.
    EXPECT_EQ(json::parse(nestedArrays(json::kMaxDepth)).items().size(),
              1u);
    EXPECT_THROW(json::parse(nestedArrays(json::kMaxDepth + 1)), Error);
    std::string objects;
    for (size_t i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"a\": ";
    objects += "1" + std::string(json::kMaxDepth + 1, '}');
    EXPECT_THROW(json::parse(objects), Error);
    try {
        json::parse(nestedArrays(100000));
        FAIL() << "100,000 nested arrays parsed";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    json::Value obj = json::Value::object();
    obj.set("z", json::Value::number(1));
    obj.set("a", json::Value::number(2));
    std::ostringstream os;
    obj.write(os);
    EXPECT_EQ(os.str(), "{\n  \"z\": 1,\n  \"a\": 2\n}");
}

TEST(Json, WireTextIsCompact)
{
    // str() is the serve wire format: no whitespace between tokens,
    // while write() indents for files people read. Both parse alike.
    json::Value words = json::Value::array();
    words.push(json::Value::number(1));
    words.push(json::Value::number(2));
    json::Value obj = json::Value::object();
    obj.set("words", std::move(words));
    obj.set("s", json::Value::str("a b"));
    obj.set("none", json::Value::object());
    EXPECT_EQ(obj.str(), "{\"words\":[1,2],\"s\":\"a b\",\"none\":{}}");
    std::ostringstream os;
    obj.write(os);
    EXPECT_EQ(json::parse(os.str()).str(), obj.str());
}

} // namespace
} // namespace calyx
