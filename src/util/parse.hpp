#pragma once

#include <limits>
#include <string>

namespace ssr {

/// Strict unsigned decimal for text read from outside the process (spec
/// files, control replies): digits only — no sign, no spaces — and no
/// overflow of T.
template <class T>
bool parse_uint(const std::string& s, T& out) {
  if (s.empty()) return false;
  T v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const T digit = static_cast<T>(c - '0');
    if (v > (std::numeric_limits<T>::max() - digit) / 10) return false;
    v = static_cast<T>(v * 10 + digit);
  }
  out = v;
  return true;
}

/// "0" or "1".
inline bool parse_flag(const std::string& s, bool& out) {
  if (s != "0" && s != "1") return false;
  out = s == "1";
  return true;
}

}  // namespace ssr
