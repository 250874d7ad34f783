#pragma once
// Runtime-dispatched SIMD backends for the host-side numeric kernels.
//
// The paper's whole argument is that vector hardware turns the NCAR kernels
// into streaming loops; this layer gives the *host* the same treatment. At
// startup the CPU is probed (SSE4.2 / AVX2 / AVX-512F) and a function-pointer
// table of kernels is selected; every kernel also has a scalar reference
// implementation that is always available and always the semantic truth.
//
// Determinism contract (DESIGN.md section 12): every backend is bit-identical
// to the scalar reference. The kernels use only exactly-rounded IEEE
// operations (add/sub/mul/div/sqrt, copies, bitwise selects), never FMA (the
// SIMD translation units compile with -ffp-contract=off), keep libm
// transcendentals as per-lane scalar calls, and vectorise only across
// independent elements — reductions keep their original sequential order.
// Complex multiplies use the mul/addsub pattern, whose components equal the
// libstdc++ naive formula term by term (IEEE + and * are commutative
// bitwise). Remainder lanes fall back to the scalar reference code.
//
// Selection: SX4NCAR_SIMD (common/knobs.hpp) or set_backend(). A backend
// the CPU cannot run falls back to the best supported one; supported() lets
// callers (tests, CI probes) check first.

#include <complex>

namespace ncar::simd {

using cd = std::complex<double>;

enum class Backend {
  Scalar = 0,
  Sse42,
  Avx2,
  Avx512,
};

inline constexpr int kBackendCount = static_cast<int>(Backend::Avx512) + 1;

/// One dispatchable kernel set. All pointers are always non-null.
struct KernelTable {
  // --- streaming / memory ---------------------------------------------------
  /// dst[i] = src[i]
  void (*copy_d)(const double* src, double* dst, long n);
  /// dst[i] = src[idx[i]]
  void (*gather_d)(const double* src, const long* idx, double* dst, long n);
  /// dst[i] = src[i * stride]
  void (*strided_copy_d)(const double* src, long stride, double* dst, long n);

  // --- elementwise ----------------------------------------------------------
  /// acc[i] = acc[i] + x[i]
  void (*add_d)(double* acc, const double* x, long n);
  /// dst[i] = x[i] * s
  void (*scale_d)(const double* x, double s, double* dst, long n);
  /// dst[i] = (x[i] * s1) * s2
  void (*scale2_d)(const double* x, double s1, double s2, double* dst, long n);
  /// dst[i] = mask[i] != 0 ? a[i] : b[i]   (bitwise select; dst may alias
  /// a or b)
  void (*select_d)(const double* mask, const double* a, const double* b,
                   double* dst, long n);

  // --- fused model kernels --------------------------------------------------
  /// RADABS two-band absorptance for one level pair over the column axis:
  /// a12[c] = a1 + a2 with u = (1.66*w[c])*sp, a1 = 1 - exp(-8*sqrt(u)),
  /// a2 = 0.04*log(1 + u*pow((0.5*(t1[c]+t2[c]))/250, 0.5)).
  /// `scratch` must hold at least 4*n doubles.
  void (*radabs_pair_d)(const double* w, const double* t1, const double* t2,
                        double sp, double* a12, double* scratch, long n);
  /// MOM baroclinic advection-diffusion stencil over one latitude row:
  /// dst[i] = f[i] - adv*(uu[i]*(aip-aim) + vv[i]*(ajp-ajm))*0.5
  ///        + kappa*(aip+aim+ajp+ajm - 4*f[i]).
  void (*mom_stencil_d)(const double* f, const double* aip, const double* aim,
                        const double* ajp, const double* ajm, const double* uu,
                        const double* vv, double adv, double kappa,
                        double* dst, long n);
  /// Convective adjustment of one level pair across columns: where
  /// lower[i] > upper[i], both become 0.5*(upper[i]+lower[i]).
  void (*mix_unstable_d)(double* upper, double* lower, long n);
  /// POP free-surface continuity: eta[i] -= s * (0.5*((uxp-uxm)+(vyp-vym))).
  void (*pop_eta_d)(const double* uxp, const double* uxm, const double* vyp,
                    const double* vym, double s, double* eta, long n);
  /// POP momentum update (ncor = -coriolis, precomputed by the caller):
  /// u[i] += dtb*(cor*v - gscale*0.5*(exp-exm) - drag*u),
  /// v[i] += dtb*(ncor*u - gscale*0.5*(eyp-eym) - drag*v), simultaneously.
  void (*pop_momentum_d)(const double* ex_p, const double* ex_m,
                         const double* ey_p, const double* ey_m, double dtb,
                         double gscale, double cor, double drag, double* u,
                         double* v, long n);
  /// POP tracer advection-diffusion (nadv = -adv, precomputed):
  /// t[i] += nadv*(u*tx + v*ty) + kappa*lap with the cshift-style stencil.
  void (*pop_tracer_d)(const double* txp, const double* txm, const double* typ,
                       const double* tym, const double* u, const double* v,
                       double nadv, double kappa, double* t, long n);

  // --- complex / FFT --------------------------------------------------------
  /// Radix-2/3/5 FFT combine passes over `m` butterflies in place. `tw` is
  /// the stage twiddle table laid out tw[j*m + k]; `sign` is -1 forward /
  /// +1 inverse (baked into tw for the twiddle multiplies themselves).
  void (*fft_combine2)(cd* out, long m, const cd* tw);
  void (*fft_combine3)(cd* out, long m, const cd* tw, double sign);
  void (*fft_combine5)(cd* out, long m, const cd* tw, double sign);
  /// acc[k] += g * p[k]  (complex * real, componentwise)
  void (*axpy_cd_r)(cd* acc, cd g, const double* p, long n);
  /// Fixed-order reduction sum_k s[k]*p[k]: products may be vectorised, the
  /// accumulation is sequential in k (bit-identical to the scalar loop).
  cd (*dot_cd_r)(const cd* s, const double* p, long n);
  /// Two fixed-order reductions sharing one pass: sum s[k]*p[k] and
  /// sum s[k]*d[k].
  void (*dot2_cd_r)(const cd* s, const double* p, const double* d, long n,
                    cd* out_p, cd* out_d);
};

/// Stable lowercase name ("scalar", "sse42", "avx2", "avx512").
const char* to_string(Backend b);

/// True when this host can execute `b` (Scalar is always true; on non-x86
/// builds everything else is false).
bool supported(Backend b);

/// The most capable supported backend.
Backend best_supported();

/// The active backend, initialised on first use from SX4NCAR_SIMD
/// (common/knobs.hpp): unset, empty or "auto" is best_supported(), and a
/// backend the host cannot run clamps to it. Throws ncar::config_error,
/// again on every call, while the value is malformed.
Backend active();

/// Force a backend; unsupported requests clamp to best_supported().
/// Returns the backend actually selected.
Backend set_backend(Backend b);

/// The kernel table for the active backend.
const KernelTable& table();

/// The kernel table for a specific backend (clamped to Scalar when
/// unsupported) — the property battery compares these pairwise.
const KernelTable& table_for(Backend b);

// Per-ISA tables (internal wiring; null when the translation unit was built
// without that instruction set).
const KernelTable& scalar_table();
const KernelTable* sse42_table_impl();
const KernelTable* avx2_table_impl();
const KernelTable* avx512_table_impl();

}  // namespace ncar::simd
