#include "util/json.hh"

namespace av::util {

std::string
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

} // namespace av::util
