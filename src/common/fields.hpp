// Field lists for counter structs, and the generic walks over them.
//
// A counter struct lists its fields once, in a static walker
//
//   template <class Visit, class... S>
//   static void fields(Visit&& visit, S&... s) {
//     visit("name", Fold::kSum, s.name...);
//     ...
//   }
//
// which calls `visit` once per field with that field of every struct
// passed in. A field is a number, a vector, an int-keyed map, or a struct
// with its own list. fold, encode/Decoder and print walk any such list,
// so a new counter is one line in its struct's list.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
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

namespace fields {

template <class T>
concept Listed =
    requires(T& t) { T::fields([](const char*, Fold, auto&) {}, t); };
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V>
inline constexpr bool kIsMap<std::map<K, V>> = true;

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
    T::fields([&out](const char*, Fold, const auto& f) { encode(f, out); },
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
      T::fields([this](const char*, Fold, auto& f) { get(f); }, value);
    } else if constexpr (kIsMap<T>) {
      for (std::size_t n = length(); n > 0; --n) {
        typename T::key_type key{};
        get(key);
        auto [it, fresh] = value.try_emplace(key);
        if (!fresh) fail("duplicate key " + std::to_string(key));
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

// Writes one `path=value` line per field; doubles print exactly.
template <class T>
void print(std::ostream& out, const std::string& path, const T& value) {
  if constexpr (Listed<T>) {
    T::fields([&](const char* name, Fold, const auto& f) {
      print(out, path.empty() ? name : path + "." + name, f);
    }, value);
  } else if constexpr (kIsMap<T>) {
    for (const auto& [key, item] : value) {
      print(out, path + "[" + std::to_string(key) + "]", item);
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

}  // namespace fields
}  // namespace sia
