#pragma once
// Comparator machine models for the paper's Table 1.
//
// The paper contrasts the HINT metric with the NCAR RADABS kernel on four
// systems: SUN Sparc20, IBM RS6000/590, Cray J90, and Cray Y-MP. The point
// of the table is the scalar/vector asymmetry — HINT ranks the cache-based
// workstations above the vector Crays while RADABS ranks them the other way
// around. We model each system with the same parameterised timing machinery
// as the SX-4 (the sxs::MachineConfig is general enough to describe a Cray's
// single-wide vector pipes or a workstation with no vector unit at all).
//
// Calibration sources for the presets: published clock rates and pipe
// structures (Y-MP: 6 ns, one add + one multiply pipe per CPU, VL=64;
// J90: 10 ns CMOS derivative of the Y-MP; SuperSPARC ~60 MHz, 16 KB data
// cache; POWER2 ~66.5 MHz, dual FMA units, 256 KB data cache).

#include <memory>
#include <string>

#include "sxs/cpu.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/ops.hpp"

namespace ncar::machines {

/// Observer of the *logical* op stream charged to a Comparator. Callbacks
/// fire before machine dispatch, so a vec() charge is reported as a vector
/// op even on machines without vector hardware — a recorded stream replays
/// correctly against any target (sweep.hpp's record/replay engine).
class OpSink {
public:
  virtual ~OpSink() = default;
  virtual void on_vec(const sxs::VectorOp& op, long repeats) = 0;
  virtual void on_scalar(const sxs::ScalarOp& op) = 0;
  virtual void on_intrinsic(sxs::Intrinsic f, long n) = 0;
};

/// Description of a comparator system on top of the generic timing model.
struct Spec {
  std::string name;
  sxs::MachineConfig cfg;
  bool has_vector = true;
  /// Extra scalar cycles per libm intrinsic call (call overhead, argument
  /// checks) on machines that evaluate intrinsics in scalar library code.
  double libm_call_overhead_cycles = 0.0;
  /// Time multiplier for *vector* intrinsic evaluation relative to the
  /// machine's arithmetic pipes (1.0 = fully tuned vector libm).
  double vector_libm_multiplier = 1.0;
};

/// A machine that benchmark kernels can charge work against. Vector-style
/// loops fall back to the scalar unit on machines without vector hardware.
class Comparator {
public:
  explicit Comparator(Spec spec);

  // The internal Cpu references spec_.cfg; copying would dangle.
  Comparator(const Comparator&) = delete;
  Comparator& operator=(const Comparator&) = delete;

  const std::string& name() const { return spec_.name; }
  bool has_vector() const { return spec_.has_vector; }
  const sxs::MachineConfig& config() const { return spec_.cfg; }

  /// A charge priced on this machine's path: the vector pipes, or the
  /// scalar unit on a machine without vector hardware. Only the
  /// Comparator that priced it may charge it (its Spec owns the config).
  struct Price {
    sxs::Cpu::Price cpu;
    /// Scalar-library call overhead per charge (scalar-machine intrinsics).
    Cycles libm_overhead{0.0};
  };

  /// Price a vectorisable loop. Without vector hardware it is the scalar
  /// loop the machine runs instead.
  Price price(const sxs::VectorOp& op);
  /// Price an inherently scalar loop.
  Price price(const sxs::ScalarOp& op);
  /// Price `n` intrinsic calls via the machine's best path: the vector
  /// libm, or scalar library code plus its call overhead.
  Price price(sxs::Intrinsic f, long n);
  /// Charge `price` `repeats` times: one product on the vector pipes,
  /// `repeats` scalar charges on a machine without them.
  void charge(const Price& price, long repeats = 1);

  /// Charge a vectorisable loop (runs on vector pipes when present),
  /// `repeats` times.
  void vec(const sxs::VectorOp& op, long repeats = 1);
  /// Charge an inherently scalar loop.
  void scalar(const sxs::ScalarOp& op);
  /// Charge `n` intrinsic calls via the machine's best path.
  void intrinsic(sxs::Intrinsic f, long n);

  /// Attach an observer of every charged op (nullptr detaches; not owned).
  /// The sink survives reset() — kernels reset the machine on entry, and a
  /// recorder must still see the ops that follow.
  void set_op_sink(OpSink* sink) { sink_ = sink; }

  Seconds seconds() const { return Seconds(cpu_.seconds()); }
  Flops hw_flops() const { return cpu_.hw_flops(); }
  Flops equiv_flops() const { return cpu_.equiv_flops(); }
  /// Fraction of charged time spent in intrinsic evaluation.
  double intrinsic_time_fraction() const {
    return cpu_.cycles() > 0 ? cpu_.intrinsic_cycles() / cpu_.cycles() : 0.0;
  }
  /// Read access to the underlying CPU accounting.
  const sxs::Cpu& cpu() const { return cpu_; }
  void reset() { cpu_.reset(); }

  // --- presets (Table 1 systems + the SX-4 itself) -----------------------
  // Thin wrappers over the builtin machine catalog (description.hpp); the
  // pre-catalog hard-coded Specs survive verbatim in
  // tests/machines/test_golden_descriptions.cpp, which pins each preset
  // bit-identical to its description-built twin.
  static Spec sun_sparc20();
  static Spec ibm_rs6000_590();
  static Spec cray_j90();
  static Spec cray_ymp();
  static Spec nec_sx4_single();

private:
  Spec spec_;
  sxs::Cpu cpu_;
  OpSink* sink_ = nullptr;
};

}  // namespace ncar::machines
