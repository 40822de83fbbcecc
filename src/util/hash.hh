/**
 * @file
 * Field lists and the FNV-1a archive that hashes them.
 *
 * Each struct that feeds an experiment key declares its members once,
 * in a `fields(ar, config)` template right after the struct: it
 * binds every member with a structured binding and passes them to
 * `ar` in key order. A member added to the struct and not to the
 * list fails to compile. Hasher walks the lists for exp::cacheKey,
 * exp::driveKey and fault::faultSalt.
 */

#ifndef AVSCOPE_UTIL_HASH_HH
#define AVSCOPE_UTIL_HASH_HH

#include <bit>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace av::util {

/** @p C is @p T or const @p T: one field list serves both walks. */
template <class C, class T>
concept MaybeConst = std::same_as<std::remove_const_t<C>, T>;

/**
 * Streaming 64-bit FNV-1a. Integers, bools and enums fold as a
 * little-endian u64, doubles as their bit pattern (-0.0 and 0.0 and
 * every NaN payload differ), strings as their bytes and 0xff (never
 * in a name), and a record through its own field list. Callers fold
 * a tag string before each struct so adjacent field sequences cannot
 * alias: `h("cpu", machine.cpu, "gpu", machine.gpu)`.
 */
class Hasher
{
  public:
    template <class... Ts>
    void operator()(const Ts &...values)
    {
        (fold(values), ...);
    }

    std::uint64_t value() const { return hash_; }

  private:
    void byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 1099511628211ULL;
    }

    template <class T>
    void fold(const T &value)
    {
        if constexpr (std::is_convertible_v<T, std::string_view>) {
            for (const char c : std::string_view(value))
                byte(static_cast<unsigned char>(c));
            byte(0xff);
        } else if constexpr (std::is_class_v<T>) {
            fields(*this, value); // found by ADL next to T
        } else {
            std::uint64_t bits;
            if constexpr (std::is_floating_point_v<T>)
                bits = std::bit_cast<std::uint64_t>(value);
            else
                bits = static_cast<std::uint64_t>(value);
            for (int i = 0; i < 8; ++i, bits >>= 8)
                byte(static_cast<unsigned char>(bits & 0xffu));
        }
    }

    std::uint64_t hash_ = 14695981039346656037ULL;
};

} // namespace av::util

#endif // AVSCOPE_UTIL_HASH_HH
