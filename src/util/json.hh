/**
 * @file
 * The JSON writer of every bench/ and tools/ artifact, and the
 * string escaping it applies.
 */

#ifndef AVSCOPE_UTIL_JSON_HH
#define AVSCOPE_UTIL_JSON_HH

#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace av::util {

/**
 * Escape @p text for the inside of a JSON string literal (RFC 8259
 * §7): quote and backslash get a backslash, control bytes below
 * 0x20 their short escape or \\u00XX. Other bytes, UTF-8 included,
 * pass through.
 */
inline std::string
jsonEscape(std::string_view text)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out.push_back(hex[(c >> 4) & 0xf]);
                out.push_back(hex[c & 0xf]);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/**
 * Streaming JSON writer. Each container is block (one member per
 * line, two spaces of indent per level, its close on a line of its
 * own) or inline (`{"k": v, "k2": v2}`). Strings and keys are
 * escaped, bools print as true / false and numbers in the stream's
 * default format (`%g`, six significant digits). Closing the
 * outermost container ends the document with a newline.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** Open a block or inline object or array as the next value. */
    JsonWriter &object() { return open('{', false); }
    JsonWriter &array() { return open('[', false); }
    JsonWriter &inlineObject() { return open('{', true); }
    JsonWriter &inlineArray() { return open('[', true); }

    /** Close the innermost open container. */
    JsonWriter &end()
    {
        const auto [close, isInline] = open_.back();
        open_.pop_back();
        if (!isInline)
            os_ << '\n' << std::string(2 * open_.size(), ' ');
        os_ << close << (open_.empty() ? "\n" : "");
        comma_ = true;
        return *this;
    }

    /** Name the next value, inside an object. */
    JsonWriter &key(std::string_view name)
    {
        value(name);
        os_ << ": ";
        keyed_ = true;
        return *this;
    }

    /** A string (escaped), a bool or a number. */
    template <typename T>
    JsonWriter &value(const T &v)
    {
        separate();
        if constexpr (std::is_same_v<T, bool>)
            os_ << (v ? "true" : "false");
        else if constexpr (std::is_arithmetic_v<T>)
            os_ << v;
        else
            os_ << '"' << jsonEscape(v) << '"';
        return *this;
    }

    /** key(name).value(v) for each name / value pair. */
    template <typename T, typename... Rest>
    JsonWriter &field(std::string_view name, const T &v,
                      const Rest &...rest)
    {
        key(name).value(v);
        if constexpr (sizeof...(rest) > 0)
            field(rest...);
        return *this;
    }

    /** One inline object of name / value pairs. */
    template <typename... Pairs>
    JsonWriter &row(const Pairs &...pairs)
    {
        return inlineObject().field(pairs...).end();
    }

  private:
    JsonWriter &open(char bracket, bool isInline)
    {
        separate();
        os_ << bracket;
        open_.emplace_back(bracket == '{' ? '}' : ']', isInline);
        comma_ = false;
        return *this;
    }

    /** Emit what goes before the next key or value. */
    void separate()
    {
        if (std::exchange(keyed_, false) || open_.empty())
            return;
        const bool isInline = open_.back().second;
        if (std::exchange(comma_, true))
            os_ << (isInline ? ", " : ",");
        if (!isInline)
            os_ << '\n' << std::string(2 * open_.size(), ' ');
    }

    std::ostream &os_;
    /** Close bracket and inline-ness of each open container. */
    std::vector<std::pair<char, bool>> open_;
    bool comma_ = false; ///< the next member needs a comma
    bool keyed_ = false; ///< a key awaits its value
};

} // namespace av::util

#endif // AVSCOPE_UTIL_JSON_HH
