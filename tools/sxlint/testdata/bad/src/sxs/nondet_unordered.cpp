// BAD fixture (no-nondeterminism): an unordered container in model code,
// flagged at its #include and its declaration. The sum here is
// order-insensitive, but the rule is deliberately conservative — charged or
// serialized state must never depend on hash-bucket order.
#include <unordered_map>

namespace sxs {
class BankBook {
 public:
  double total() const {
    double sum = 0.0;
    for (const auto& entry : pending_) {  // nondeterministic order
      sum += entry.second;
    }
    return sum;
  }

 private:
  std::unordered_map<int, double> pending_;
};
}  // namespace sxs
