// Field lists for counter and configuration structs, and the generic
// walks over them.
//
// A struct lists its fields once, in a static walker
//
//   template <class Visit, class... S>
//   static void fields(Visit&& visit, S&... s) {
//     visit("name", tag, s.name...);
//     ...
//   }
//
// which calls `visit` once per field with that field of every struct
// passed in. The tag is a Fold for counters and a Knob for configuration
// fields. A field is a number, a string, a vector, a map, or a struct
// with its own list. fold and encode/Decoder walk counter lists; print,
// parse and check walk configuration lists (print walks both), so a new
// counter or knob is one line in its struct's list.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace sia {

// How a field combines when two structs fold together.
enum class Fold {
  kSum,  // counters and accumulated times
  kMax,  // peaks, pool sizes, the slowest rank's wall time
};

// What a configuration field's list entry carries in place of a Fold:
// its valid range (inclusive; a map's range applies to every value) and
// the planner dimension it belongs to. A tuned field moved off its
// default pins that dimension; null means the planner never tunes it.
struct Knob {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  const char* tuned = nullptr;
};

namespace fields {

template <class T>
concept Listed =
    requires(T& t) { T::fields([](const char*, auto, auto&) {}, t); };
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V>
inline constexpr bool kIsMap<std::map<K, V>> = true;

inline std::string key_text(const std::string& key) { return key; }
template <class K>
std::string key_text(K key) {
  return std::to_string(key);
}

// Folds `src` into `dst` field by field: vectors element-wise, maps key
// by key.
template <class T>
void fold(T& dst, const T& src, Fold how = Fold::kSum) {
  if constexpr (Listed<T>) {
    T::fields([](const char*, Fold f, auto& d, const auto& s) { fold(d, s, f); },
              dst, src);
  } else if constexpr (kIsMap<T>) {
    for (const auto& [key, value] : src) fold(dst[key], value, how);
  } else if constexpr (kIsVector<T>) {
    if (dst.size() < src.size()) dst.resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) fold(dst[i], src[i], how);
  } else {
    dst = how == Fold::kMax ? std::max(dst, src) : dst + src;
  }
}

// Appends `value` as 64-bit words in list order. A vector or map is
// preceded by its length; doubles travel as their bit patterns.
template <class T>
void encode(const T& value, std::vector<std::int64_t>& out) {
  if constexpr (Listed<T>) {
    T::fields([&out](const char*, auto, const auto& f) { encode(f, out); },
              value);
  } else if constexpr (kIsMap<T> || kIsVector<T>) {
    out.push_back(static_cast<std::int64_t>(value.size()));
    for (const auto& item : value) {
      if constexpr (kIsMap<T>) {
        encode(item.first, out);
        encode(item.second, out);
      } else {
        encode(item, out);
      }
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    out.push_back(std::bit_cast<std::int64_t>(value));
  } else {
    out.push_back(static_cast<std::int64_t>(value));
  }
}

// Reads back what encode() wrote, trusting nothing: every read is bounds
// checked, a length may not exceed the words left, map keys are unique,
// and integers must fit their field. Violations throw Error.
class Decoder {
 public:
  explicit Decoder(const std::vector<std::int64_t>& words) : words_(words) {}

  std::int64_t word() {
    if (next_ >= words_.size()) fail("truncated");
    return words_[next_++];
  }
  bool done() const { return next_ == words_.size(); }

  template <class T>
  void get(T& value) {
    if constexpr (Listed<T>) {
      T::fields([this](const char*, auto, auto& f) { get(f); }, value);
    } else if constexpr (kIsMap<T>) {
      for (std::size_t n = length(); n > 0; --n) {
        typename T::key_type key{};
        get(key);
        auto [it, fresh] = value.try_emplace(key);
        if (!fresh) fail("duplicate key " + key_text(key));
        get(it->second);
      }
    } else if constexpr (kIsVector<T>) {
      value.resize(length());
      for (auto& item : value) get(item);
    } else if constexpr (std::is_floating_point_v<T>) {
      value = std::bit_cast<double>(word());
    } else {
      const std::int64_t w = word();
      if (!std::in_range<T>(w)) fail("value " + std::to_string(w));
      value = static_cast<T>(w);
    }
  }

  [[noreturn]] static void fail(const std::string& what) {
    throw Error("malformed field data: " + what);
  }

 private:
  std::size_t length() {
    const std::int64_t n = word();
    if (n < 0 || static_cast<std::uint64_t>(n) > words_.size() - next_) {
      fail("bad length " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
  }

  const std::vector<std::int64_t>& words_;
  std::size_t next_ = 0;
};

// Writes one `path=value` line per field, a map entry as `path[key]`;
// doubles print exactly, strings as they are.
template <class T>
void print(std::ostream& out, const std::string& path, const T& value) {
  if constexpr (Listed<T>) {
    T::fields([&](const char* name, auto, const auto& f) {
      print(out, path.empty() ? name : path + "." + name, f);
    }, value);
  } else if constexpr (kIsMap<T>) {
    for (const auto& [key, item] : value) {
      print(out, path + "[" + key_text(key) + "]", item);
    }
  } else if constexpr (kIsVector<T>) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      print(out, path + "[" + std::to_string(i) + "]", value[i]);
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << path << '=' << buf << '\n';
  } else {
    out << path << '=' << value << '\n';
  }
}

// Sets `value` from its print() text, which it must match exactly: an
// integer that does not fit the field, trailing characters or a bool
// other than 0/1 throw Error naming `key`.
template <class T>
void parse_value(T& value, std::string_view key, std::string_view text) {
  bool ok = true;
  if constexpr (std::is_same_v<T, std::string>) {
    value = text;
  } else if constexpr (std::is_same_v<T, bool>) {
    ok = text == "0" || text == "1";
    value = text == "1";
  } else {
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    ok = ec == std::errc() && stop == end;
  }
  if (!ok) {
    throw Error("bad value for '" + std::string(key) + "': '" +
                std::string(text) + "'");
  }
}

// Sets the field print() names `key` ("workers", "fault_plan.seed",
// "constants[norb]") from `text`. Returns false when no field has that
// name; throws Error when the text is not a value of the field's type.
template <class T>
bool parse(T& value, std::string_view key, std::string_view text,
           std::size_t at = 0) {
  bool found = false;
  T::fields([&](const char* name, auto, auto& f) {
    using F = std::remove_cvref_t<decltype(f)>;
    const std::string_view rest = key.substr(at);
    if (found || !rest.starts_with(name)) return;
    const std::size_t next = at + std::char_traits<char>::length(name);
    const std::string_view tail = key.substr(next);
    if constexpr (Listed<F>) {
      if (tail.starts_with('.')) found = parse(f, key, text, next + 1);
    } else if constexpr (kIsMap<F>) {
      if (tail.size() >= 2 && tail.front() == '[' && tail.back() == ']') {
        typename F::key_type item{};
        parse_value(item, key, tail.substr(1, tail.size() - 2));
        parse_value(f[item], key, text);
        found = true;
      }
    } else if constexpr (!kIsVector<F>) {
      if (tail.empty()) {
        parse_value(f, key, text);
        found = true;
      }
    }
  }, value);
  return found;
}

[[noreturn]] inline void out_of_range(const char* owner,
                                      const std::string& what,
                                      const Knob& knob) {
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const std::string range =
      knob.max == std::numeric_limits<double>::infinity()
          ? ">= " + num(knob.min)
          : "in [" + num(knob.min) + ", " + num(knob.max) + "]";
  throw Error(std::string(owner) + ": " + what + " must be " + range);
}

// Throws Error naming the first field of `value` (or map entry) outside
// its Knob range; NaN lies outside every range. Nested lists check
// themselves.
template <class T>
void check(const T& value, const char* owner) {
  T::fields([owner](const char* name, const Knob& knob, const auto& f) {
    using F = std::remove_cvref_t<decltype(f)>;
    const auto fits = [&knob](double v) {
      return knob.min <= v && v <= knob.max;
    };
    if constexpr (kIsMap<F>) {
      if constexpr (std::is_arithmetic_v<typename F::mapped_type>) {
        for (const auto& [key, item] : f) {
          if (!fits(static_cast<double>(item))) {
            out_of_range(owner, name + ("[" + key_text(key) + "]"), knob);
          }
        }
      }
    } else if constexpr (std::is_arithmetic_v<F>) {
      if (!fits(static_cast<double>(f))) out_of_range(owner, name, knob);
    }
  }, value);
}

}  // namespace fields
}  // namespace sia
