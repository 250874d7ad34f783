// BAD fixture (unit-leak): hasty_seconds() converts Cycles to Seconds
// by unwrapping and re-wrapping with an ad-hoc clock rate instead of going
// through MachineConfig::to_seconds. The blessed conversion below it is the
// exempted good twin.
namespace ncar {
namespace dim {
struct Cycles {};
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

inline Quantity<dim::Seconds> hasty_seconds(Quantity<dim::Cycles> c) {
  return Quantity<dim::Seconds>(c.value() / 2.0e9);  // ad-hoc clock: leak
}

struct MachineConfig {
  double clock_hz = 2.0e9;
  Quantity<dim::Seconds> to_seconds(Quantity<dim::Cycles> c) const {
    return Quantity<dim::Seconds>(c.value() / clock_hz);  // blessed
  }
};
}  // namespace ncar
