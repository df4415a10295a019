#include "obs/json_reader.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/json_util.h"

namespace mapp::obs {

double
JsonValue::number() const
{
    return kind_ == Kind::Number
               ? number_
               : std::numeric_limits<double>::quiet_NaN();
}

double
JsonValue::numberOr(double fallback) const
{
    return kind_ == Kind::Number ? number_ : fallback;
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    for (const auto& [name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

double
JsonValue::memberNumberOr(std::string_view key, double fallback) const
{
    const JsonValue* v = find(key);
    return v != nullptr ? v->numberOr(fallback) : fallback;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.boolean_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double value)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = value;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.text_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent parser over one document. */
class Parser
{
  public:
    Parser(std::string_view text, const std::string& label)
        : text_(text), label_(label)
    {
    }

    Result<JsonValue> parse()
    {
        auto value = parseValue(0);
        if (!value.ok())
            return value;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing content after the JSON document");
        return value;
    }

  private:
    Error locate(const std::string& message) const
    {
        SourceContext context;
        context.file = label_;
        context.row = line_;
        return Error(ErrorCode::Parse, message, std::move(context));
    }

    Result<JsonValue> fail(const std::string& message) const
    {
        return Result<JsonValue>(locate(message));
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

    /** Append @p codepoint to @p out as UTF-8. */
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

    Result<std::string> parseString()
    {
        // Caller consumed the opening quote.
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\n')
                return Result<std::string>(
                    locate("unterminated string (newline inside)"));
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return Result<std::string>(
                        locate("truncated \\u escape"));
                unsigned codepoint = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    codepoint <<= 4;
                    if (h >= '0' && h <= '9')
                        codepoint |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        codepoint |=
                            static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        codepoint |=
                            static_cast<unsigned>(h - 'A' + 10);
                    else
                        return Result<std::string>(
                            locate("bad hex digit in \\u escape"));
                }
                appendUtf8(out, codepoint);
                break;
              }
              default:
                return Result<std::string>(locate(
                    std::string("unknown escape '\\") + esc + "'"));
            }
        }
        return Result<std::string>(locate("unterminated string"));
    }

    Result<JsonValue> parseNumber()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            const bool numeric =
                (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-';
            if (!numeric)
                break;
            ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (token.empty() || token == "-")
            return fail("expected a number");
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("bad number '" + token + "'");
        if (!std::isfinite(v))
            return fail("number '" + token +
                        "' is out of double range");
        return Result<JsonValue>(JsonValue::makeNumber(v));
    }

    Result<JsonValue> parseValue(int depth)
    {
        if (depth > kMaxJsonDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxJsonDepth) + " levels");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            std::vector<std::pair<std::string, JsonValue>> members;
            skipWhitespace();
            if (consume('}'))
                return Result<JsonValue>(
                    JsonValue::makeObject(std::move(members)));
            while (true) {
                skipWhitespace();
                if (!consume('"'))
                    return fail("expected a member name string");
                auto name = parseString();
                if (!name.ok())
                    return Result<JsonValue>(name.error());
                skipWhitespace();
                if (!consume(':'))
                    return fail("expected ':' after member name");
                auto value = parseValue(depth + 1);
                if (!value.ok())
                    return value;
                members.emplace_back(std::move(name).value(),
                                     std::move(value).value());
                skipWhitespace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return Result<JsonValue>(
                        JsonValue::makeObject(std::move(members)));
                return fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++pos_;
            std::vector<JsonValue> items;
            skipWhitespace();
            if (consume(']'))
                return Result<JsonValue>(
                    JsonValue::makeArray(std::move(items)));
            while (true) {
                auto value = parseValue(depth + 1);
                if (!value.ok())
                    return value;
                items.push_back(std::move(value).value());
                skipWhitespace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return Result<JsonValue>(
                        JsonValue::makeArray(std::move(items)));
                return fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            ++pos_;
            auto text = parseString();
            if (!text.ok())
                return Result<JsonValue>(text.error());
            return Result<JsonValue>(
                JsonValue::makeString(std::move(text).value()));
        }
        if (consumeWord("true"))
            return Result<JsonValue>(JsonValue::makeBool(true));
        if (consumeWord("false"))
            return Result<JsonValue>(JsonValue::makeBool(false));
        if (consumeWord("null"))
            return Result<JsonValue>(JsonValue::makeNull());
        return parseNumber();
    }

    std::string_view text_;
    const std::string& label_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
};

}  // namespace

Result<JsonValue>
parseJson(std::string_view text, const std::string& source_label)
{
    Parser parser(text, source_label);
    return parser.parse();
}

}  // namespace mapp::obs
