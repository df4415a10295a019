#include "serve/protocol.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "common/log.h"
#include "common/parse.h"
#include "obs/json_util.h"
#include "vision/registry.h"

namespace mapp::serve {

namespace {

Error
protoError(std::string message, const std::string& label,
           ErrorCode code = ErrorCode::Parse)
{
    SourceContext context;
    context.file = label;
    return Error(code, std::move(message), std::move(context));
}

Result<RequestOp>
parseOp(const std::string& name, const std::string& label)
{
    if (name == "ping")
        return RequestOp::Ping;
    if (name == "predict")
        return RequestOp::Predict;
    if (name == "predict_batch")
        return RequestOp::PredictBatch;
    if (name == "quality")
        return RequestOp::Quality;
    if (name == "stats")
        return RequestOp::Stats;
    if (name == "metrics")
        return RequestOp::Metrics;
    if (name == "reload")
        return RequestOp::Reload;
    if (name == "shutdown")
        return RequestOp::Shutdown;
    return protoError("unknown op '" + name + "'", label);
}

/** "SIFT@40" -> BagMember; the batch lies in [minBatch, 1e6]. */
Result<predictor::BagMember>
parseMemberRef(const std::string& text, const std::string& label)
{
    const auto at = text.find('@');
    if (at == std::string::npos)
        return protoError("member '" + text +
                              "' is not BENCH@BATCH",
                          label);
    predictor::BagMember member;
    try {
        member.id = vision::benchmarkFromName(text.substr(0, at));
    } catch (const FatalError& e) {
        return protoError(e.what(), label);
    }
    const auto batch = parseBoundedInt(
        text.substr(at + 1), vision::minBatch(member.id), 1'000'000);
    if (!batch)
        return protoError("member '" + text + "': " +
                              batch.error().message(),
                          label);
    member.batchSize = batch.value();
    return member;
}

/** What a schema field held; checked once the whole line is read. */
enum class Seen : std::uint8_t { Absent, Number, String, Object, Array, Other };

/** The member names the schema reads; every other member is skipped. */
enum class Key : std::uint8_t {
    Other,
    Id,
    Op,
    DeadlineMs,
    Queries,
    A,
    B,
    Fairness,
    App,
    Batch,
    CpuTime,
    GpuTime,
    Mix,
};

Key
keyOf(std::string_view name)
{
    static constexpr std::pair<std::string_view, Key> kKeys[] = {
        {"id", Key::Id},
        {"op", Key::Op},
        {"a", Key::A},
        {"b", Key::B},
        {"fairness", Key::Fairness},
        {"cpu_time", Key::CpuTime},
        {"gpu_time", Key::GpuTime},
        {"mix", Key::Mix},
        {"app", Key::App},
        {"batch", Key::Batch},
        {"deadline_ms", Key::DeadlineMs},
        {"queries", Key::Queries},
    };
    for (const auto& [spelling, key] : kKeys)
        if (name == spelling)
            return key;
    return Key::Other;
}

/** A query member ("a"/"b"): a BENCH@BATCH string or raw features. */
struct AppSlot
{
    Seen kind = Seen::Absent;
    std::string member;  ///< the text, when kind is String
    Seen app = Seen::Absent;
    Seen batch = Seen::Absent;
    Seen cpuTime = Seen::Absent;
    Seen gpuTime = Seen::Absent;
    Seen mix = Seen::Absent;
    double batchValue = 0.0;
    std::size_t mixItems = 0;
    std::array<bool, isa::kNumInstClasses> mixIsNumber{};
};

/** One query object; raw features and fairness land in spec as read. */
struct QuerySlot
{
    Seen kind = Seen::Absent;
    AppSlot a;
    AppSlot b;
    Seen fairness = Seen::Absent;
    QuerySpec spec;
};

/**
 * One pass over a request line that fills the request's slots directly,
 * with no DOM. The JSON grammar, the depth bound and the syntax messages
 * are obs::parseJson's, and a repeated member keeps its first value as
 * JsonValue::find does, so a line is accepted, rejected and reported
 * exactly as the DOM walk did (tests/serve_reference.h). Schema checks
 * wait until the whole line is read, in the DOM walk's order, so a
 * syntax error anywhere is reported before a schema error.
 */
class RequestReader
{
  public:
    RequestReader(std::string_view text, const std::string& label)
        : text_(text), label_(label)
    {
    }

    Result<Request> read()
    {
        Request request;
        QuerySlot root;  // a predict's query is the root object itself
        Seen id = Seen::Absent;
        Seen op = Seen::Absent;
        Seen deadline = Seen::Absent;
        Seen queries = Seen::Absent;
        std::string opName;
        double deadlineMs = 0.0;
        std::vector<QuerySlot> items;

        char c = 0;
        bool ok = peekValue(0, c);
        if (ok && c == '{') {
            root.kind = Seen::Object;
            ok = readObject(0, [&](std::string_view name, int depth) {
                const Key key = keyOf(name);
                if (key == Key::Id && id == Seen::Absent)
                    return readValue(depth, id, nullptr, &request.id);
                if (key == Key::Op && op == Seen::Absent)
                    return readValue(depth, op, nullptr, &opName);
                if (key == Key::DeadlineMs && deadline == Seen::Absent)
                    return readValue(depth, deadline, &deadlineMs);
                if (key == Key::Queries && queries == Seen::Absent)
                    return readQueries(depth, queries, items);
                return readQueryMember(key, depth, root);
            });
        } else if (ok) {
            ok = readValue(0, root.kind);
        }
        if (ok) {
            skipWhitespace();
            if (pos_ != text_.size())
                ok = fail("trailing content after the JSON document");
        }
        if (!ok)
            return std::move(*error_);

        if (root.kind != Seen::Object)
            return protoError("request must be a JSON object", label_);
        if (op != Seen::String)
            return protoError("request needs a string 'op'", label_);
        auto verb = parseOp(opName, label_);
        if (!verb)
            return verb.error();
        request.op = verb.value();

        if (deadline != Seen::Absent) {
            const double ms = deadline == Seen::Number ? deadlineMs : -1.0;
            if (!(ms >= 0.0) || !std::isfinite(ms))
                return protoError(
                    "'deadline_ms' must be a non-negative finite number",
                    label_);
            request.deadlineMs = ms;
        }

        if (request.op == RequestOp::Predict) {
            auto spec = checkQuery(root);
            if (!spec)
                return spec.error();
            request.queries.push_back(std::move(spec).value());
        } else if (request.op == RequestOp::PredictBatch) {
            if (queries != Seen::Array || items.empty())
                return protoError(
                    "predict_batch needs a non-empty 'queries' array",
                    label_);
            request.queries.reserve(items.size());
            for (auto& item : items) {
                auto spec = checkQuery(item);
                if (!spec)
                    return spec.error();
                request.queries.push_back(std::move(spec).value());
            }
        }
        return request;
    }

  private:
    // --- Schema: which member goes where -----------------------------

    /** "a", "b" or "fairness" of @p query; any other member is skipped. */
    bool readQueryMember(Key key, int depth, QuerySlot& query)
    {
        if (key == Key::A && query.a.kind == Seen::Absent)
            return readApp(depth, query.a, query.spec.raw.a);
        if (key == Key::B && query.b.kind == Seen::Absent)
            return readApp(depth, query.b, query.spec.raw.b);
        if (key == Key::Fairness && query.fairness == Seen::Absent)
            return readValue(depth, query.fairness,
                             &query.spec.raw.fairness);
        return skipValue(depth);
    }

    bool readQueries(int depth, Seen& kind, std::vector<QuerySlot>& items)
    {
        char c = 0;
        if (!peekValue(depth, c))
            return false;
        if (c != '[')
            return readValue(depth, kind);
        kind = Seen::Array;
        return readArray(depth, [&](std::size_t, int inner) {
            QuerySlot& query = items.emplace_back();
            if (!peekValue(inner, c))
                return false;
            if (c != '{')
                return readValue(inner, query.kind);
            query.kind = Seen::Object;
            return readObject(inner, [&](std::string_view name, int d) {
                return readQueryMember(keyOf(name), d, query);
            });
        });
    }

    bool readApp(int depth, AppSlot& slot, predictor::AppFeatures& features)
    {
        char c = 0;
        if (!peekValue(depth, c))
            return false;
        if (c != '{')
            return readValue(depth, slot.kind, nullptr, &slot.member);
        slot.kind = Seen::Object;
        return readObject(depth, [&](std::string_view name, int inner) {
            switch (keyOf(name)) {
              case Key::App:
                if (slot.app == Seen::Absent)
                    return readValue(inner, slot.app, nullptr,
                                     &features.app);
                break;
              case Key::Batch:
                if (slot.batch == Seen::Absent)
                    return readValue(inner, slot.batch, &slot.batchValue);
                break;
              case Key::CpuTime:
                if (slot.cpuTime == Seen::Absent)
                    return readValue(inner, slot.cpuTime,
                                     &features.cpuTime);
                break;
              case Key::GpuTime:
                if (slot.gpuTime == Seen::Absent)
                    return readValue(inner, slot.gpuTime,
                                     &features.gpuTime);
                break;
              case Key::Mix:
                if (slot.mix == Seen::Absent)
                    return readMix(inner, slot, features);
                break;
              default:
                break;
            }
            return skipValue(inner);
        });
    }

    bool readMix(int depth, AppSlot& slot, predictor::AppFeatures& features)
    {
        char c = 0;
        if (!peekValue(depth, c))
            return false;
        if (c != '[')
            return readValue(depth, slot.mix);
        slot.mix = Seen::Array;
        return readArray(depth, [&](std::size_t i, int inner) {
            slot.mixItems = i + 1;
            if (i >= isa::kNumInstClasses)
                return skipValue(inner);
            Seen kind = Seen::Absent;
            if (!readValue(inner, kind, &features.mixPercent[i]))
                return false;
            slot.mixIsNumber[i] = kind == Seen::Number;
            return true;
        });
    }

    // --- Schema checks, in the DOM walk's order ----------------------

    std::optional<Error> checkApp(const AppSlot& slot,
                                  predictor::AppFeatures& features,
                                  const char* name) const
    {
        using namespace std::string_literals;
        if (slot.kind != Seen::Object)
            return protoError(
                "query member '"s + name +
                    "' must be a BENCH@BATCH string or a feature object",
                label_);
        if (slot.batch != Seen::Absent) {
            // Checked before the cast: a double outside int's range
            // (1e300) would make static_cast<int> undefined behaviour.
            const double n =
                slot.batch == Seen::Number ? slot.batchValue : -1.0;
            if (!(n >= 0.0 && n <= 1'000'000.0) || n != std::floor(n))
                return protoError("query member '"s + name +
                                      "' 'batch' must be a whole number "
                                      "in [0, 1000000]",
                                  label_);
            features.batchSize = static_cast<int>(n);
        }
        if (slot.cpuTime != Seen::Number)
            return protoError("query member '"s + name +
                                  "' needs a finite number 'cpu_time'",
                              label_);
        if (slot.gpuTime != Seen::Number)
            return protoError("query member '"s + name +
                                  "' needs a finite number 'gpu_time'",
                              label_);
        if (slot.mix != Seen::Array ||
            slot.mixItems != isa::kNumInstClasses)
            return protoError(
                "query member '"s + name + "' needs 'mix' with " +
                    std::to_string(isa::kNumInstClasses) + " percentages",
                label_);
        for (std::size_t i = 0; i < isa::kNumInstClasses; ++i)
            if (!slot.mixIsNumber[i])
                return protoError("query member '"s + name + "' mix[" +
                                      std::to_string(i) +
                                      "] is not a finite number",
                                  label_);
        return std::nullopt;
    }

    Result<QuerySpec> checkQuery(QuerySlot& query) const
    {
        if (query.kind != Seen::Object)
            return protoError("query must be an object", label_);
        if (query.a.kind == Seen::Absent || query.b.kind == Seen::Absent)
            return protoError("query needs members 'a' and 'b'", label_);

        QuerySpec& spec = query.spec;
        if (query.fairness != Seen::Absent) {
            if (query.fairness != Seen::Number)
                return protoError("'fairness' must be a finite number",
                                  label_);
            spec.fairnessProvided = true;
        }

        const bool aIsText = query.a.kind == Seen::String;
        const bool bIsText = query.b.kind == Seen::String;
        if (aIsText != bIsText)
            return protoError(
                "members 'a' and 'b' must both be BENCH@BATCH strings or "
                "both be feature objects",
                label_);
        if (aIsText) {
            spec.byMembers = true;
            auto ma = parseMemberRef(query.a.member, label_);
            if (!ma)
                return ma.error();
            spec.a = ma.value();
            auto mb = parseMemberRef(query.b.member, label_);
            if (!mb)
                return mb.error();
            spec.b = mb.value();
            return std::move(spec);
        }
        if (auto error = checkApp(query.a, spec.raw.a, "a"))
            return std::move(*error);
        if (auto error = checkApp(query.b, spec.raw.b, "b"))
            return std::move(*error);
        if (!spec.fairnessProvided)
            return protoError(
                "raw-feature queries need a top-level 'fairness'", label_);
        return std::move(spec);
    }

    // --- JSON grammar, as obs::parseJson reads it --------------------

    bool fail(std::string message)
    {
        SourceContext context;
        context.file = label_;
        context.row = line_;
        error_.emplace(ErrorCode::Parse, std::move(message),
                       std::move(context));
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            if (c == '\n')
                ++line_;
            ++pos_;
        }
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    /** The depth bound, whitespace and end checks before any value;
     *  @p c is the value's first character. */
    bool peekValue(int depth, char& c)
    {
        if (depth > obs::kMaxJsonDepth)
            return fail("nesting deeper than " +
                        std::to_string(obs::kMaxJsonDepth) + " levels");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        c = text_[pos_];
        return true;
    }

    /**
     * Any value. A number lands in @p number and a string in @p text
     * (when given); objects and arrays are checked and skipped.
     */
    bool readValue(int depth, Seen& kind, double* number = nullptr,
                   std::string* text = nullptr)
    {
        char c = 0;
        if (!peekValue(depth, c))
            return false;
        if (c == '{') {
            kind = Seen::Object;
            return readObject(depth, [this](std::string_view, int inner) {
                return skipValue(inner);
            });
        }
        if (c == '[') {
            kind = Seen::Array;
            return readArray(depth, [this](std::size_t, int inner) {
                return skipValue(inner);
            });
        }
        if (c == '"') {
            ++pos_;
            kind = Seen::String;
            return readString(text);
        }
        if (consumeWord("true") || consumeWord("false") ||
            consumeWord("null")) {
            kind = Seen::Other;
            return true;
        }
        kind = Seen::Number;
        double value = 0.0;
        if (!readNumber(value))
            return false;
        if (number != nullptr)
            *number = value;
        return true;
    }

    bool skipValue(int depth)
    {
        Seen ignored = Seen::Absent;
        return readValue(depth, ignored);
    }

    /**
     * The object at pos_ ('{'). @p onMember(name, depth) reads each
     * member's value; @p name may point into scratch_, so it is only
     * valid until the next string is read.
     */
    template <typename OnMember>
    bool readObject(int depth, OnMember&& onMember)
    {
        ++pos_;
        skipWhitespace();
        if (consume('}'))
            return true;
        for (;;) {
            skipWhitespace();
            if (!consume('"'))
                return fail("expected a member name string");
            std::string_view name;
            if (!readName(name))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return fail("expected ':' after member name");
            if (!onMember(name, depth + 1))
                return false;
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    /** The array at pos_ ('['); @p onItem(index, depth) reads each item. */
    template <typename OnItem>
    bool readArray(int depth, OnItem&& onItem)
    {
        ++pos_;
        skipWhitespace();
        if (consume(']'))
            return true;
        for (std::size_t i = 0;; ++i) {
            if (!onItem(i, depth + 1))
                return false;
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    /** A member name after its opening quote: a view of the line when
     *  it holds no escape, else decoded into scratch_. */
    bool readName(std::string_view& name)
    {
        for (std::size_t i = pos_; i < text_.size(); ++i) {
            const char c = text_[i];
            if (c == '"') {
                name = text_.substr(pos_, i - pos_);
                pos_ = i + 1;
                return true;
            }
            if (c == '\\' || c == '\n')
                break;
        }
        if (!readString(&scratch_))
            return false;
        name = scratch_;
        return true;
    }

    static void appendUtf8(std::string& out, unsigned codepoint)
    {
        if (codepoint < 0x80) {
            out += static_cast<char>(codepoint);
        } else if (codepoint < 0x800) {
            out += static_cast<char>(0xC0 | (codepoint >> 6));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (codepoint >> 12));
            out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        }
    }

    /** A string after its opening quote, decoded into @p out (when
     *  given); unescaped runs are appended whole. */
    bool readString(std::string* out)
    {
        if (out != nullptr)
            out->clear();
        std::size_t run = pos_;  // start of the unescaped run
        const auto flush = [&](std::size_t end) {
            if (out != nullptr)
                out->append(text_.data() + run, end - run);
        };
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') {
                flush(pos_ - 1);
                return true;
            }
            if (c == '\n')
                return fail("unterminated string (newline inside)");
            if (c != '\\')
                continue;
            flush(pos_ - 1);
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            char plain = 0;
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                plain = esc;
                break;
              case 'b':
                plain = '\b';
                break;
              case 'f':
                plain = '\f';
                break;
              case 'n':
                plain = '\n';
                break;
              case 'r':
                plain = '\r';
                break;
              case 't':
                plain = '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned codepoint = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    codepoint <<= 4;
                    if (h >= '0' && h <= '9')
                        codepoint |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        codepoint |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        codepoint |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                if (out != nullptr)
                    appendUtf8(*out, codepoint);
                break;
              }
              default:
                return fail(std::string("unknown escape '\\") + esc +
                            "'");
            }
            if (plain != 0 && out != nullptr)
                *out += plain;
            run = pos_;
        }
        return fail("unterminated string");
    }

    /**
     * A number token as parseJson delimits it. from_chars reads it; the
     * spellings it refuses but strtod, which parseJson used, reads
     * ("+1", and "1e-400" as 0) fall back to strtod, so both readers
     * take the same tokens to the same bits.
     */
    bool readNumber(double& value)
    {
        const std::size_t start = pos_;
        consume('-');
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            const bool numeric = (c >= '0' && c <= '9') || c == '.' ||
                                 c == 'e' || c == 'E' || c == '+' ||
                                 c == '-';
            if (!numeric)
                break;
            ++pos_;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-")
            return fail("expected a number");
        const char* end = token.data() + token.size();
        const auto [stop, ec] = std::from_chars(token.data(), end, value);
        if (ec == std::errc() && stop == end)
            return true;
        const std::string copy(token);
        char* parsed = nullptr;
        value = std::strtod(copy.c_str(), &parsed);
        if (parsed != copy.c_str() + copy.size())
            return fail("bad number '" + copy + "'");
        if (!std::isfinite(value))
            return fail("number '" + copy + "' is out of double range");
        return true;
    }

    std::string_view text_;
    const std::string& label_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::string scratch_;  ///< decoded member names with escapes
    std::optional<Error> error_;
};

/** {"id":..,"ok":true,"op":.. — a success response, still open. */
void
appendSuccessHead(std::string& out, std::string_view id, RequestOp op)
{
    out += "{\"id\":";
    obs::appendJsonString(out, id);
    out += ",\"ok\":true,\"op\":";
    obs::appendJsonString(out, requestOpName(op));
}

void
appendUnsigned(std::string& out, std::uint64_t value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

std::string_view
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping:
        return "ping";
      case RequestOp::Predict:
        return "predict";
      case RequestOp::PredictBatch:
        return "predict_batch";
      case RequestOp::Quality:
        return "quality";
      case RequestOp::Stats:
        return "stats";
      case RequestOp::Metrics:
        return "metrics";
      case RequestOp::Reload:
        return "reload";
      case RequestOp::Shutdown:
        return "shutdown";
    }
    return "ping";
}

Result<Request>
parseRequest(std::string_view line, const std::string& source_label)
{
    return RequestReader(line, source_label).read();
}

std::string
errorResponse(const std::string& id, std::string_view code,
              std::string_view message)
{
    std::string out = "{\"id\":";
    obs::appendJsonString(out, id);
    out += ",\"ok\":false,\"error\":";
    obs::appendJsonString(out, code);
    out += ",\"message\":";
    obs::appendJsonString(out, message);
    out += '}';
    return out;
}

std::string
ackResponse(const std::string& id, RequestOp op)
{
    return objectResponse(id, op, "");
}

std::string
predictResponse(const std::string& id, RequestOp op,
                std::span<const double> predictedSeconds,
                std::uint64_t epoch, double queueUs)
{
    std::string out;
    out.reserve(96 + id.size() + 25 * predictedSeconds.size());
    appendSuccessHead(out, id, op);
    out += ",\"predicted_seconds\":";
    if (op == RequestOp::Predict) {
        obs::appendJsonNumber(out, predictedSeconds.empty()
                                       ? 0.0
                                       : predictedSeconds.front());
    } else {
        out += '[';
        for (std::size_t i = 0; i < predictedSeconds.size(); ++i) {
            if (i > 0)
                out += ',';
            obs::appendJsonNumber(out, predictedSeconds[i]);
        }
        out += ']';
    }
    out += ",\"epoch\":";
    appendUnsigned(out, epoch);
    out += ",\"queue_us\":";
    obs::appendJsonNumber(out, queueUs);
    out += '}';
    return out;
}

std::string
reloadResponse(const std::string& id, std::uint64_t epoch)
{
    return objectResponse(id, RequestOp::Reload,
                          "\"epoch\":" + std::to_string(epoch));
}

std::string
objectResponse(const std::string& id, RequestOp op,
               const std::string& renderedFields)
{
    std::string out;
    out.reserve(32 + id.size() + renderedFields.size());
    appendSuccessHead(out, id, op);
    if (!renderedFields.empty()) {
        out += ',';
        out += renderedFields;
    }
    out += '}';
    return out;
}

}  // namespace mapp::serve
