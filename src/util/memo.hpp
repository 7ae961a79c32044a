#pragma once

#include <cstdint>

namespace ssr::util {

/// Every kRefresh-th consecutive skip of a memoized step runs it in full.
/// Eight is about one token round of do-forever ticks.
inline constexpr std::uint32_t kRefresh = 8;

/// Lets a do-forever step skip work whose inputs have not changed since it
/// last ran: a re-encode and re-publish of an unchanged state slot, or a
/// receipt that changed nothing the last time it ran on the same inputs.
/// The owner keys its inputs with a version that moves on every change.
///
/// The memo is part of a node's arbitrary initial state. If a transient
/// fault makes it lie, the step still runs in full on every kRefresh-th
/// consecutive skip, so the repair waits at most kRefresh calls. On a
/// correct memo that full run changes nothing, so skipping leaves every
/// execution exactly as it was.
class Memo {
 public:
  /// True when the step may be skipped: it last ran in full at `version`,
  /// `same` holds (any inputs the version does not cover are unchanged),
  /// and this is not the kRefresh-th skip in a row.
  bool skip(std::uint64_t version, bool same = true) {
    if (valid_ && same && version == version_ && ++skips_ < kRefresh) {
      return true;
    }
    skips_ = 0;
    return false;
  }
  /// The step ran in full at `version`.
  void ran(std::uint64_t version) {
    version_ = version;
    valid_ = true;
  }
  /// The step's output was dropped, or the step did not run: the next call
  /// runs it in full.
  void forget() { valid_ = false; }

 private:
  std::uint64_t version_ = 0;
  std::uint32_t skips_ = 0;
  bool valid_ = false;
};

}  // namespace ssr::util
