// GOOD fixture (unit-leak): typed quantities cross the public
// surface, raw doubles stay private, and cycles<->seconds conversion goes
// through MachineConfig. Nothing here may be flagged.
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

struct MachineConfig {
  double clock_hz = 2.0e9;
  Quantity<dim::Seconds> to_seconds(Quantity<dim::Cycles> c) const {
    return Quantity<dim::Seconds>(c.value() / clock_hz);
  }
  Quantity<dim::Cycles> to_cycles(Quantity<dim::Seconds> s) const {
    return Quantity<dim::Cycles>(s.value() * clock_hz);
  }
};

class Stage {
 public:
  Quantity<dim::Cycles> busy() const { return busy_; }  // typed: fine

 private:
  double busy_raw() const { return busy_.value(); }  // private: allowed
  Quantity<dim::Cycles> busy_{0.0};
};
}  // namespace ncar
