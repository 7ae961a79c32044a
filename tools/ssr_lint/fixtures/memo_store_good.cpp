// Fixture: the clean twin of memo_store_bad.cpp — every write moves the
// version, directly or through the comparing assign() helper, and the one
// write that changes nothing a reader sees carries an allow() annotation.
#include <cstdint>
#include <map>
#include <set>

namespace fixture {

class Store {
 public:
  void receipt(int from, int pair) { assign(max_[from], pair); }

  void rebuild(const std::set<int>& members) {
    ++version_;
    members_ = members;
  }

  void flush() {
    ++version_;
    stored_.clear();
  }

  int local_max(int self) {
    // ssr-lint: allow(memo-invalidate) inserting an empty entry changes
    // nothing any reader sees.
    return max_[self];
  }

  std::uint64_t version() const { return version_; }

 private:
  void assign(int& dst, int src) {
    if (dst == src) return;
    dst = src;
    ++version_;
  }

  std::map<int, int> max_;
  std::map<int, int> stored_;
  std::set<int> members_;
  std::uint64_t version_ = 0;
};

}  // namespace fixture
