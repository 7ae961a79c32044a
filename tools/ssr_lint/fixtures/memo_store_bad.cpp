// Fixture: a store whose version keys memoized steps (skipped receipts,
// unchanged publishes), with writes that do not move the version — a step
// keyed on it would then skip work whose inputs did change.
#include <cstdint>
#include <map>
#include <set>

namespace fixture {

class Store {
 public:
  void receipt(int from, int pair) {
    max_[from] = pair;  // violation: no version_ bump
  }

  void rebuild(const std::set<int>& members) {
    members_ = members;  // violation: no version_ bump
  }

  void flush() {
    stored_.clear();  // violation: no version_ bump
  }

  std::uint64_t version() const { return version_; }

 private:
  std::map<int, int> max_;
  std::map<int, int> stored_;
  std::set<int> members_;
  std::uint64_t version_ = 0;
};

}  // namespace fixture
