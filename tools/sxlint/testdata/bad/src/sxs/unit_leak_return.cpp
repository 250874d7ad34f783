// BAD fixture (unit-leak): a public accessor strips the Seconds
// dimension with .value() and returns a raw double. The typed sibling
// accessor right below it must stay clean.
namespace ncar {
namespace dim {
struct Seconds {};
}  // namespace dim

template <class Dim>
class Quantity {
 public:
  explicit Quantity(double v) : v_(v) {}
  double value() const { return v_; }

 private:
  double v_;
};

class StepTimer {
 public:
  double elapsed_seconds() const { return total_.value(); }  // leak
  Quantity<dim::Seconds> elapsed() const { return total_; }  // typed: fine

 private:
  Quantity<dim::Seconds> total_{0.0};
};
}  // namespace ncar
