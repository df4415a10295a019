/**
 * @file
 * Differential proof for the serve wire path. serve::parseRequest (the
 * single-pass reader) and the DOM walk it replaced
 * (tests/serve_reference.h) read the same lines and must agree on
 * accept or reject, on the ErrorCode and located message, and on the
 * bits of every field. The lines come from a deterministic mutation
 * corpus (truncation at every byte, single-bit flips, oversize lines,
 * duplicate and \u-escaped keys, nested unknown members, the number
 * spellings where from_chars and strtod differ) and from generated
 * requests. The response number writer is checked byte for byte
 * against printf's "%.17g". Runs under the `robustness` label (ASan)
 * and the `serve` label.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/json_util.h"
#include "serve/protocol.h"
#include "serve_reference.h"

namespace {

using namespace mapp;
using serve::Request;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** First difference between two parsed apps, or "". */
std::string
diffApp(const predictor::AppFeatures& x, const predictor::AppFeatures& y,
        const std::string& where)
{
    if (x.app != y.app)
        return where + ".app";
    if (x.batchSize != y.batchSize)
        return where + ".batch";
    if (bits(x.cpuTime) != bits(y.cpuTime))
        return where + ".cpu_time";
    if (bits(x.gpuTime) != bits(y.gpuTime))
        return where + ".gpu_time";
    for (std::size_t i = 0; i < x.mixPercent.size(); ++i)
        if (bits(x.mixPercent[i]) != bits(y.mixPercent[i]))
            return where + ".mix[" + std::to_string(i) + "]";
    return "";
}

/** First difference between the two readers' results, or "". */
std::string
diff(const Result<Request>& got, const Result<Request>& want)
{
    if (got.ok() != want.ok())
        return got.ok() ? "reader accepts, DOM rejects: " +
                              want.error().toString()
                        : "reader rejects, DOM accepts: " +
                              got.error().toString();
    if (!got.ok()) {
        if (got.error().code() != want.error().code())
            return "error code";
        if (got.error().toString() != want.error().toString())
            return "error '" + got.error().toString() + "' vs '" +
                   want.error().toString() + "'";
        return "";
    }
    const Request& x = got.value();
    const Request& y = want.value();
    if (x.op != y.op)
        return "op";
    if (x.id != y.id)
        return "id";
    if (bits(x.deadlineMs) != bits(y.deadlineMs))
        return "deadline_ms";
    if (x.queries.size() != y.queries.size())
        return "query count";
    for (std::size_t q = 0; q < x.queries.size(); ++q) {
        const auto& s = x.queries[q];
        const auto& t = y.queries[q];
        const std::string where = "queries[" + std::to_string(q) + "]";
        if (s.byMembers != t.byMembers)
            return where + ".byMembers";
        if (s.a.id != t.a.id || s.a.batchSize != t.a.batchSize ||
            s.b.id != t.b.id || s.b.batchSize != t.b.batchSize)
            return where + " member";
        if (s.fairnessProvided != t.fairnessProvided ||
            bits(s.raw.fairness) != bits(t.raw.fairness))
            return where + ".fairness";
        if (auto d = diffApp(s.raw.a, t.raw.a, where + ".a"); !d.empty())
            return d;
        if (auto d = diffApp(s.raw.b, t.raw.b, where + ".b"); !d.empty())
            return d;
    }
    return "";
}

/** Runs both readers over lines; counts accepts and disagreements. */
struct Differential
{
    std::size_t lines = 0;
    std::size_t accepted = 0;
    std::vector<std::string> disagreements;

    void check(const std::string& line)
    {
        ++lines;
        const auto got = serve::parseRequest(line, "conn");
        const auto want = serve::reference::parseRequest(line, "conn");
        accepted += got.ok();
        if (const auto d = diff(got, want); !d.empty())
            disagreements.push_back(d + "\n  line: " + line);
    }

    void expectNone() const
    {
        EXPECT_EQ(disagreements.size(), 0u)
            << "over " << lines << " lines; first: "
            << (disagreements.empty() ? "" : disagreements.front());
    }
};

const std::string kRawApp =
    R"({"cpu_time":0.5,"gpu_time":0.25,"app":"SIFT","batch":40,)"
    R"("mix":[10,10,10,10,10,10,10,10,20]})";

/** The well-formed lines every mutation starts from. */
std::vector<std::string>
seedLines()
{
    return {
        R"({"op":"ping","id":"1"})",
        R"({"op":"stats","id":"s"})",
        R"({"op":"predict","id":"q1","deadline_ms":5,)"
        R"("a":"SIFT@40","b":"FAST@20"})",
        R"({"op":"predict","id":"q2","a":"KNN@4","b":"FAST@1",)"
        R"("fairness":0.75})",
        R"({"op":"predict","id":"r1","a":)" + kRawApp + R"(,"b":)" +
            kRawApp + R"(,"fairness":0.5})",
        R"({"op":"predict_batch","id":"b1","deadline_ms":2.5,)"
        R"("queries":[{"a":"SIFT@40","b":"FAST@20"},)"
        R"({"a":)" + kRawApp + R"(,"b":)" + kRawApp +
            R"(,"fairness":1e-3}]})",
        // Nested unknown members, escapes, odd spacing.
        " {\"extra\":{\"x\":[1,{\"y\":null},true,false,\"s\\n\"]},"
        "\"op\" : \"predict\", \"id\":\"\\u0041\\\\\\/\",\n\"a\":"
        "{\"cpu_time\":1.5e-1,\"gpu_time\":2E2,\"more\":[[[]]],"
        "\"mix\":[1,2,3,4,5,6,7,8,-9.5]},\"b\":{\"gpu_time\":0.125,"
        "\"cpu_time\":-0,\"mix\":[0,0,0,0,0,0,0,0,100]},"
        "\"fairness\":0.25} ",
        // \u-escaped keys and values.
        R"({"op":"predict","\u0069d":"\u00e9",)"
        R"("a":"SIFT@40","b":"FAST@20"})",
    };
}

TEST(ServeProtocolDifferential, TruncationsAndBitFlipsOfEverySeed)
{
    Differential run;
    for (const auto& seed : seedLines()) {
        run.check(seed);
        for (std::size_t n = 0; n < seed.size(); ++n)
            run.check(seed.substr(0, n));
        for (std::size_t i = 0; i < seed.size(); ++i)
            for (int bit = 0; bit < 8; ++bit) {
                std::string flipped = seed;
                flipped[i] = static_cast<char>(
                    static_cast<unsigned char>(flipped[i]) ^ (1u << bit));
                run.check(flipped);
            }
    }
    run.expectNone();
    EXPECT_GT(run.accepted, 100u);  // many flips stay well-formed
}

TEST(ServeProtocolDifferential, DuplicateKeysKeepTheFirstValue)
{
    Differential run;
    const std::vector<std::string> values = {
        R"("x")", "7", "-1", "null", "true", "[1]", "{}", R"("SIFT@40")",
        kRawApp, "1e300", "0.5", R"("predict")", R"("ping")",
    };
    const std::vector<std::string> keys = {
        "op", "id", "deadline_ms", "a", "b", "fairness", "queries",
    };
    const std::string base = R"("op":"predict","id":"d",)"
                             R"("a":"SIFT@40","b":"FAST@20")";
    for (const auto& key : keys)
        for (const auto& value : values) {
            const std::string member = "\"" + key + "\":" + value;
            run.check("{" + member + "," + base + "}");
            run.check("{" + base + "," + member + "}");
        }
    // Inside a raw app and a batch query.
    const std::vector<std::string> appKeys = {"cpu_time", "gpu_time",
                                              "mix", "app", "batch"};
    for (const auto& key : appKeys)
        for (const auto& value : values) {
            const std::string app =
                R"({"cpu_time":0.5,"gpu_time":0.25,)"
                R"("mix":[1,1,1,1,1,1,1,1,1],")" +
                key + "\":" + value + "}";
            const std::string appFirst =
                "{\"" + key + "\":" + value +
                R"(,"cpu_time":0.5,"gpu_time":0.25,)"
                R"("mix":[1,1,1,1,1,1,1,1,1]})";
            for (const auto& a : {app, appFirst}) {
                run.check(R"({"op":"predict","a":)" + a + R"(,"b":)" +
                          kRawApp + R"(,"fairness":0.5})");
                run.check(R"({"op":"predict_batch","queries":[{"a":)" +
                          kRawApp + R"(,"b":)" + a +
                          R"(,"fairness":0.5,"fairness":"x"}]})");
            }
        }
    run.expectNone();
}

TEST(ServeProtocolDifferential, EscapedKeysAndStrings)
{
    Differential run;
    for (const char* line : {
             R"({"\u006fp":"ping"})",  // "op"
             R"({"\u006F\u0070":"ping","\u0069d":"x"})",
             R"({"o\u0070":"predict","\u0061":"SIFT@40","b":"FAST@20"})",
             R"({"op":"predict","a":"SIFT@40","\u0062":"FAST\u004020"})",
             R"({"op\u0000":"ping"})",
             R"({"op":"ping","id":"\ud83d\ude00"})",
             R"({"op":"ping","id":"\u12"})",
             R"({"op":"ping","id":"\u12G4"})",
             R"({"op":"ping","id":"\q"})",
             R"({"op":"ping","\":1})",
             "{\"op\":\"ping\",\"id\":\"a\nb\"}",
             "{\"op\":\"ping\",\"i\\",
             R"({"op":"ping","id":"\/\b\f\n\r\t\""})",
             R"({"\"op":"ping"})",
             R"({"op":"ping","id":"raw \u00e9 and \u0800 bytes"})",
         })
        run.check(line);
    run.expectNone();
}

TEST(ServeProtocolDifferential, NumberSpellingsWhereFromCharsAndStrtodDiffer)
{
    Differential run;
    const std::vector<std::string> spellings = {
        "+1", "1e-400", "-1e-400", "1e400", "-1e400", "-0", ".5", "-.5",
        "1.", "01", "-01", "00", "1e", "1e+", "1E-2", "1e+2", "--1", "+-1",
        "-+1", "-", "+", ".", "e5", "0x10", "1.5e3.2", "1-2", "1e-310",
        "4.9e-324", "2e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "0.1000000000000000055511151231257827", "123456789012345678901",
        "NaN", "Infinity", "-Infinity", "1_0", "7.0", "40", "40.0", "4e1",
        "1000000", "1000001", "-0.0", "2.5", "1e300", "-1",
    };
    for (const auto& n : spellings) {
        const std::string app =
            R"({"cpu_time":)" + n + R"(,"gpu_time":)" + n +
            R"(,"batch":)" + n + R"(,"mix":[)" + n + "," + n +
            R"(,1,1,1,1,1,1,)" + n + "]}";
        run.check(R"({"op":"predict","deadline_ms":)" + n +
                  R"(,"a":)" + app + R"(,"b":)" + kRawApp +
                  R"(,"fairness":)" + n + "}");
        // One slot at a time, so a bad spelling elsewhere cannot mask
        // the slot under test.
        run.check(R"({"op":"predict","deadline_ms":)" + n +
                  R"(,"a":"SIFT@40","b":"FAST@20"})");
        run.check(R"({"op":"predict","a":"SIFT@40","b":"FAST@20",)"
                  R"("fairness":)" + n + "}");
        for (const char* key : {"cpu_time", "gpu_time", "batch"})
            run.check(R"({"op":"predict","a":{")" + std::string(key) +
                      "\":" + n +
                      R"(,"cpu_time":1,"gpu_time":1,)"
                      R"("mix":[1,1,1,1,1,1,1,1,1]},"b":)" + kRawApp +
                      R"(,"fairness":0.5})");
        run.check(R"({"op":"predict","a":{"cpu_time":1,"gpu_time":1,)"
                  R"("mix":[1,1,1,1,)" + n + R"(,1,1,1,1]},"b":)" +
                  kRawApp + R"(,"fairness":0.5})");
        run.check(R"({"op":"ping","id":)" + n + "}");
    }
    run.expectNone();
}

TEST(ServeProtocolDifferential, OversizeAndDeepLines)
{
    Differential run;
    // Nesting at and past the 128-level bound, in an unknown member.
    for (const int depth : {126, 127, 128, 129, 200}) {
        std::string nested = std::string(static_cast<std::size_t>(depth),
                                         '[') +
                             std::string(static_cast<std::size_t>(depth),
                                         ']');
        run.check(R"({"op":"ping","x":)" + nested + "}");
        std::string objects;
        for (int i = 0; i < depth; ++i)
            objects += "{\"k\":";
        objects += "1" + std::string(static_cast<std::size_t>(depth), '}');
        run.check(R"({"op":"ping","x":)" + objects + "}");
        run.check(std::string(static_cast<std::size_t>(depth), '['));
    }
    // Long strings, long unknown arrays, a long number token and a huge
    // predict_batch, each about a megabyte.
    run.check(R"({"op":"ping","id":")" + std::string(1 << 20, 'x') +
              "\"}");
    std::string array = R"({"op":"ping","x":[)";
    for (int i = 0; i < 100000; ++i)
        array += i == 0 ? "1.5" : ",1.5";
    run.check(array + "]}");
    run.check(R"({"op":"ping","x":)" + std::string(1 << 20, '1') + "}");
    run.check(R"({"op":"ping","x":0.)" + std::string(1 << 20, '1') + "}");
    std::string batch = R"({"op":"predict_batch","queries":[)";
    for (int i = 0; i < 2000; ++i)
        batch += std::string(i == 0 ? "" : ",") + R"({"a":)" + kRawApp +
                 R"(,"b":"SIFT@40","fairness":0.5})";
    run.check(batch + "]}");
    run.check(std::string(1 << 20, ' '));
    run.check(R"({"op":"ping"})" + std::string(1 << 20, ' ') + "x");
    run.expectNone();
}

/** Generates requests: mostly valid, with type and shape slips. */
class RequestGenerator
{
  public:
    explicit RequestGenerator(std::uint64_t seed) : rng_(seed) {}

    std::string line()
    {
        std::vector<std::string> members;
        const double pick = rng_.uniform();
        const char* op = pick < 0.5    ? "predict"
                         : pick < 0.8  ? "predict_batch"
                         : pick < 0.85 ? "ping"
                         : pick < 0.9  ? "stats"
                         : pick < 0.95 ? "nope"
                                       : "";
        members.push_back(key("op") + (rng_.bernoulli(0.02)
                                           ? number()
                                           : quoted(op)));
        if (rng_.bernoulli(0.8))
            members.push_back(key("id") + (rng_.bernoulli(0.05)
                                               ? number()
                                               : quoted(text())));
        if (rng_.bernoulli(0.3))
            members.push_back(key("deadline_ms") + number());
        if (std::string(op) == "predict_batch" || rng_.bernoulli(0.05)) {
            std::string queries = "[";
            const auto n = rng_.uniformInt(0, 6);
            for (std::int64_t i = 0; i < n; ++i)
                queries += (i > 0 ? "," : "") + query();
            members.push_back(key("queries") +
                              (rng_.bernoulli(0.03) ? value(2)
                                                    : queries + "]"));
        }
        if (std::string(op) != "predict_batch" || rng_.bernoulli(0.05)) {
            std::string q = query();
            members.push_back(q.substr(1, q.size() - 2));
        }
        addNoise(members, 2);
        return "{" + join(members) + "}";
    }

  private:
    std::string ws()
    {
        static const char* kSpace[] = {"", "", "", " ", "\t", "\n", "  "};
        return kSpace[rng_.uniformInt(0, 6)];
    }

    std::string key(const std::string& name)
    {
        return ws() + quoted(name) + ws() + ":" + ws();
    }

    /** @p s quoted; now and then one character \u-escaped. */
    std::string quoted(const std::string& s)
    {
        if (s.empty() || !rng_.bernoulli(0.1))
            return "\"" + s + "\"";
        const auto at = static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(s.size()) - 1));
        char escape[8];
        std::snprintf(escape, sizeof escape, "\\u%04x",
                      static_cast<unsigned char>(s[at]));
        return "\"" + s.substr(0, at) + escape + s.substr(at + 1) + "\"";
    }

    std::string text()
    {
        static const char* kText[] = {"q", "r17", "", "id with space",
                                      "\\n", "x\\\"y", "\\u00e9"};
        return kText[rng_.uniformInt(0, 6)];
    }

    std::string number()
    {
        // Odd spellings are rare: a raw predict holds ~25 numbers, and
        // one bad one rejects the whole line.
        if (rng_.bernoulli(0.005)) {
            static const char* kOdd[] = {"+1",  "-0",  ".5",  "1.",
                                         "01",  "1e",  "-",   "1e-400",
                                         "1e400", "2.5", "0", "1e6"};
            return kOdd[rng_.uniformInt(0, 11)];
        }
        const double pick = rng_.uniform();
        char buf[64];
        char* end = buf;
        if (pick < 0.4) {  // shortest round-trip spelling
            end = std::to_chars(buf, buf + sizeof buf,
                                rng_.uniform(-1.0, 200.0))
                      .ptr;
        } else if (pick < 0.6) {  // six significant digits
            end = std::to_chars(buf, buf + sizeof buf,
                                rng_.uniform(0.0, 100.0),
                                std::chars_format::general, 6)
                      .ptr;
        } else if (pick < 0.7) {  // any exponent, past both ends
            end = std::to_chars(
                      buf, buf + sizeof buf,
                      rng_.uniform(0.0, 1.0) *
                          std::pow(10.0, static_cast<double>(
                                             rng_.uniformInt(-330, 330))),
                      std::chars_format::scientific, 3)
                      .ptr;
        } else {
            end = std::to_chars(buf, buf + sizeof buf,
                                rng_.uniformInt(-5, 2'000'000))
                      .ptr;
        }
        return std::string(buf, end);
    }

    std::string member()
    {
        static const char* kNames[] = {"SIFT", "FAST",   "KNN",
                                       "HoG",  "SVM",    "ORB",
                                       "SURF", "OBJREC", "FACEDET",
                                       "NOPE", "sift"};
        std::string name = kNames[rng_.uniformInt(0, 10)];
        if (rng_.bernoulli(0.02))
            return name;
        return name + "@" + std::to_string(rng_.uniformInt(-1, 2000));
    }

    /** A query member; @p byName picks the member form. */
    std::string app(bool byName)
    {
        if (byName)
            return quoted(member());
        if (rng_.bernoulli(0.03))
            return value(1);
        std::vector<std::string> fields;
        if (rng_.bernoulli(0.97))
            fields.push_back(key("cpu_time") + number());
        if (rng_.bernoulli(0.97))
            fields.push_back(key("gpu_time") + number());
        if (rng_.bernoulli(0.3))
            fields.push_back(key("app") + (rng_.bernoulli(0.9)
                                               ? quoted(member())
                                               : number()));
        if (rng_.bernoulli(0.3))
            fields.push_back(key("batch") +
                             (rng_.bernoulli(0.9)
                                  ? std::to_string(rng_.uniformInt(0, 500))
                                  : number()));
        if (rng_.bernoulli(0.97)) {
            std::string mix = "[";
            const auto n = rng_.bernoulli(0.9) ? 9 : rng_.uniformInt(0, 11);
            for (std::int64_t i = 0; i < n; ++i)
                mix += (i > 0 ? "," : "") + ws() +
                       (rng_.bernoulli(0.01) ? value(0) : number());
            fields.push_back(key("mix") + mix + ws() + "]");
        }
        addNoise(fields, 1);
        return "{" + join(fields) + "}";
    }

    std::string query()
    {
        // Both members take one form, except in a few slips.
        const bool byName = rng_.bernoulli(0.4);
        std::vector<std::string> fields;
        if (rng_.bernoulli(0.97))
            fields.push_back(key("a") + app(byName));
        if (rng_.bernoulli(0.97))
            fields.push_back(
                key("b") + app(rng_.bernoulli(0.97) ? byName : !byName));
        if (rng_.bernoulli(0.7))
            fields.push_back(key("fairness") + (rng_.bernoulli(0.97)
                                                    ? number()
                                                    : value(0)));
        addNoise(fields, 1);
        return "{" + join(fields) + "}";
    }

    /** Any JSON value, nested up to @p depth. */
    std::string value(int depth)
    {
        const auto kind = rng_.uniformInt(0, depth > 0 ? 6 : 4);
        switch (kind) {
          case 0:
            return number();
          case 1:
            return quoted(text());
          case 2:
            return "true";
          case 3:
            return "null";
          case 4:
            return "false";
          case 5: {
            std::string out = "[";
            const auto n = rng_.uniformInt(0, 3);
            for (std::int64_t i = 0; i < n; ++i)
                out += (i > 0 ? "," : "") + value(depth - 1);
            return out + "]";
          }
          default: {
            std::string out = "{";
            const auto n = rng_.uniformInt(0, 3);
            for (std::int64_t i = 0; i < n; ++i)
                out += (i > 0 ? "," : "") + key("k" + std::to_string(i)) +
                       value(depth - 1);
            return out + "}";
          }
        }
    }

    /** Unknown members, duplicates of known ones, shuffled order. */
    void addNoise(std::vector<std::string>& fields, int depth)
    {
        if (rng_.bernoulli(0.3))
            fields.push_back(key("extra") + value(depth));
        if (!fields.empty() && rng_.bernoulli(0.1))
            fields.push_back(
                fields[static_cast<std::size_t>(rng_.uniformInt(
                    0, static_cast<std::int64_t>(fields.size()) - 1))]);
        if (rng_.bernoulli(0.5))
            rng_.shuffle(fields);
    }

    static std::string join(const std::vector<std::string>& parts)
    {
        std::string out;
        for (std::size_t i = 0; i < parts.size(); ++i)
            out += (i > 0 ? "," : "") + parts[i];
        return out;
    }

    Rng rng_;
};

TEST(ServeProtocolDifferential, GeneratedRequests)
{
    Differential run;
    RequestGenerator generator(0x5e7e);
    Rng mutate(0xb17f);
    for (int i = 0; i < 100'000; ++i) {
        std::string line = generator.line();
        run.check(line);
        // Every fourth line again with one byte flipped or cut short.
        if (i % 4 == 0 && !line.empty()) {
            const auto at = static_cast<std::size_t>(mutate.uniformInt(
                0, static_cast<std::int64_t>(line.size()) - 1));
            if (mutate.bernoulli(0.5))
                line[at] = static_cast<char>(
                    static_cast<unsigned char>(line[at]) ^
                    (1u << mutate.uniformInt(0, 7)));
            else
                line.resize(at);
            run.check(line);
        }
    }
    run.expectNone();
    // The corpus must exercise both outcomes in earnest.
    EXPECT_GT(run.accepted, run.lines / 5);
    EXPECT_LT(run.accepted, run.lines * 4 / 5);
}

// ---------------------------------------------------------------------------
// The number writer

/** The writer appendJsonNumber replaced. */
std::string
printfNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(ServeProtocolDifferential, NumberWriterMatchesPrintf)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1e16,
        1e17,
        1e-4,
        1e-5,
        123456789012345678.0,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (int e = -330; e <= 310; ++e)
        values.push_back(std::pow(10.0, e));
    Rng rng(0x70c4a75);
    for (int i = 0; i < 200'000; ++i) {
        const auto raw = rng.next();
        values.push_back(std::bit_cast<double>(raw));  // any bit pattern
        values.push_back(std::bit_cast<double>(
            raw & 0x800f'ffff'ffff'ffffull));          // subnormal or ±0
        values.push_back(rng.uniform(-1e3, 1e3));
        values.push_back(static_cast<double>(rng.uniformInt(-1'000'000,
                                                            1'000'000)));
    }
    std::size_t mismatches = 0;
    std::string first;
    for (const double v : values) {
        std::string got;
        obs::appendJsonNumber(got, v);
        if (got != printfNumber(v) && mismatches++ == 0)
            first = got + " vs " + printfNumber(v);
    }
    EXPECT_EQ(mismatches, 0u) << "over " << values.size()
                              << " values; first: " << first;
}

TEST(ServeProtocolDifferential, PredictResponseIsTheOldConcatenation)
{
    // The one-string response builder against the field-by-field
    // concatenation it replaced, for awkward ids and values.
    for (const std::string id : {"", "7", "q\"1", "tab\there", "\x01"}) {
        for (const double v : {0.5, -0.0, 1e-320, 123.456, 1e300}) {
            const std::vector<double> two = {v, -v};
            for (const auto op : {serve::RequestOp::Predict,
                                  serve::RequestOp::PredictBatch}) {
                std::string fields = "\"predicted_seconds\":";
                if (op == serve::RequestOp::Predict) {
                    fields += printfNumber(v);
                } else {
                    fields += "[" + printfNumber(v) + "," +
                              printfNumber(-v) + "]";
                }
                fields += ",\"epoch\":" + std::to_string(18446744073709551615ull);
                fields += ",\"queue_us\":" + printfNumber(v);
                std::string want = "{\"id\":";
                obs::appendJsonString(want, id);
                want += ",\"ok\":true,\"op\":";
                obs::appendJsonString(want, serve::requestOpName(op));
                want += "," + fields + "}";
                EXPECT_EQ(serve::predictResponse(
                              id, op,
                              op == serve::RequestOp::Predict
                                  ? std::span<const double>(&v, 1)
                                  : std::span<const double>(two),
                              18446744073709551615ull, v),
                          want);
            }
        }
    }
}

}  // namespace
