#pragma once
// Mixed-radix (2/3/5) complex FFT, FFTPACK-style.
//
// The RFFT/VFFT benchmarks (paper section 4.3) use Swarztrauber's FFTPACK,
// whose transforms support lengths with factors 2, 3, and 5 — exactly the
// three length families the paper sweeps (2^n, 3*2^n, 5*2^n). This is a
// from-scratch decimation-in-time implementation with hard-coded radix
// 2/3/5 combine kernels, run as a flat stage loop: one digit-reversal
// copy, then every combine of a stage over the whole buffer, deepest
// stage first — the loop structure of FFTPACK and of a vector machine.

#include <complex>
#include <span>
#include <vector>

namespace ncar::fft {

using cd = std::complex<double>;

/// A transform plan for a fixed length n (factors 2, 3, 5 only).
///
/// The plan precomputes the leaf permutation and the twiddle factors of
/// every combine stage at construction (forward and inverse signs), so the
/// transforms themselves never call libm and never allocate. The combine
/// passes run through the runtime-dispatched kernel table (src/simd/),
/// except the one-butterfly deepest stage, which runs the scalar reference
/// inline. Every backend gives the same doubles.
class Plan {
public:
  explicit Plan(long n);

  long size() const { return n_; }
  /// The factorisation used, smallest factors first (e.g. 12 -> {2,2,3}).
  const std::vector<int>& factors() const { return factors_; }

  /// Out-of-place forward DFT: out[k] = sum_j in[j] exp(-2 pi i jk / n).
  void forward(std::span<const cd> in, std::span<cd> out) const;

  /// Out-of-place unnormalised inverse DFT (forward then inverse gives n*x).
  void inverse(std::span<const cd> in, std::span<cd> out) const;

  /// True when n factors completely into 2, 3, and 5.
  static bool supported(long n);

private:
  /// One combine pass: each block of n = f * m values is merged from f
  /// sub-transforms of size m, with twiddles at tw_offset (laid out
  /// tw[j*m + k]).
  struct Stage {
    long n;
    int f;
    long m;
    std::size_t tw_offset;
  };

  void run(const cd* in, cd* out, bool inv) const;

  long n_;
  std::vector<int> factors_;
  std::vector<Stage> stages_;  // depth 0 = the full-length combine
  std::vector<long> perm_;     // output position -> input index
  std::vector<cd> tw_fwd_;
  std::vector<cd> tw_inv_;
};

/// Reference O(n^2) DFT for verification.
void naive_dft(std::span<const cd> in, std::span<cd> out, bool inverse);

}  // namespace ncar::fft
