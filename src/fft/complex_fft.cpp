#include "fft/complex_fft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "simd/scalar_kernels.hpp"
#include "simd/simd.hpp"

namespace ncar::fft {

namespace {

std::vector<int> factorize(long n) {
  std::vector<int> fs;
  for (int f : {2, 3, 5}) {
    while (n % f == 0) {
      fs.push_back(f);
      n /= f;
    }
  }
  NCAR_REQUIRE(n == 1, "length must factor into 2, 3, and 5");
  return fs;
}

constexpr double kTau = 2.0 * std::numbers::pi;

}  // namespace

Plan::Plan(long n) : n_(n) {
  NCAR_REQUIRE(n >= 1, "transform length must be positive");
  factors_ = factorize(n);
  // Decimation in time: the radix taken at each depth is a pure function
  // of the sub-transform size, and every block at a given depth has the
  // same size — so the stage list (and its twiddle tables) is one chain
  // from n down to 1, indexed by depth.
  std::size_t total = 0;
  for (long sz = n_; sz > 1;) {
    int f = 2;
    if (sz % 2 != 0) f = (sz % 3 == 0) ? 3 : 5;
    const long m = sz / f;
    stages_.push_back(Stage{sz, f, m, total});
    total += static_cast<std::size_t>(sz);
    sz = m;
  }
  // Leaf permutation: output position p = sum_d j_d * stages_[d].m reads
  // input index sum_d j_d * (f_0 * ... * f_{d-1}), the mixed-radix digit
  // reversal the recursion's strided legs produce.
  perm_.resize(static_cast<std::size_t>(n_));
  for (long p = 0; p < n_; ++p) {
    long rem = p, idx = 0, stride = 1;
    for (const Stage& st : stages_) {
      idx += (rem / st.m) * stride;
      rem %= st.m;
      stride *= st.f;
    }
    perm_[static_cast<std::size_t>(p)] = idx;
  }
  tw_fwd_.resize(total);
  tw_inv_.resize(total);
  for (const Stage& st : stages_) {
    for (int j = 0; j < st.f; ++j) {
      for (long k = 0; k < st.m; ++k) {
        // Exactly the angle expression the combine loop used to evaluate
        // inline, per sign, so the tables reproduce its twiddles bit for
        // bit (including the signed zeros at j*k == 0).
        const std::size_t at = st.tw_offset +
                               static_cast<std::size_t>(j) *
                                   static_cast<std::size_t>(st.m) +
                               static_cast<std::size_t>(k);
        const double fwd = -1.0 * kTau * static_cast<double>(j * k) /
                           static_cast<double>(st.n);
        const double inv = 1.0 * kTau * static_cast<double>(j * k) /
                           static_cast<double>(st.n);
        tw_fwd_[at] = cd(std::cos(fwd), std::sin(fwd));
        tw_inv_[at] = cd(std::cos(inv), std::sin(inv));
      }
    }
  }
}

bool Plan::supported(long n) {
  if (n < 1) return false;
  for (int f : {2, 3, 5}) {
    while (n % f == 0) n /= f;
  }
  return n == 1;
}

void Plan::run(const cd* in, cd* out, bool inv) const {
  // Leaves: the digit-reversed input order the decimation-in-time
  // recursion would reach at length 1.
  for (long p = 0; p < n_; ++p) out[p] = in[perm_[static_cast<std::size_t>(p)]];
  const cd* tw_all = (inv ? tw_inv_ : tw_fwd_).data();
  const double sign = inv ? 1.0 : -1.0;
  const simd::KernelTable& kt = simd::table();
  // Deepest stage first. Each block of st.n values is one combine the
  // recursion would make, with the same inputs and twiddles, so the order
  // of blocks within a stage changes no double.
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    const Stage& st = *it;
    const cd* tw = tw_all + st.tw_offset;
    const long m = st.m;
    cd* const end = out + n_;
    if (m == 1) {
      // The deepest stage: one butterfly per block, too short for any
      // SIMD body, so the scalar reference runs inline instead of a
      // table call per block (the same code every backend's tail runs).
      for (cd* blk = out; blk != end; blk += st.n) {
        switch (st.f) {
          case 2:
            simd::scalar_ref::fft_combine2(blk, 1, tw);
            break;
          case 3:
            simd::scalar_ref::fft_combine3(blk, 1, tw, sign);
            break;
          default:
            simd::scalar_ref::fft_combine5(blk, 1, tw, sign);
            break;
        }
      }
      continue;
    }
    for (cd* blk = out; blk != end; blk += st.n) {
      switch (st.f) {
        case 2:
          kt.fft_combine2(blk, m, tw);
          break;
        case 3:
          kt.fft_combine3(blk, m, tw, sign);
          break;
        default:
          kt.fft_combine5(blk, m, tw, sign);
          break;
      }
    }
  }
}

void Plan::forward(std::span<const cd> in, std::span<cd> out) const {
  NCAR_REQUIRE(static_cast<long>(in.size()) == n_ &&
                   static_cast<long>(out.size()) == n_,
               "buffer sizes must equal the plan length");
  run(in.data(), out.data(), false);
}

void Plan::inverse(std::span<const cd> in, std::span<cd> out) const {
  NCAR_REQUIRE(static_cast<long>(in.size()) == n_ &&
                   static_cast<long>(out.size()) == n_,
               "buffer sizes must equal the plan length");
  run(in.data(), out.data(), true);
}

void naive_dft(std::span<const cd> in, std::span<cd> out, bool inverse) {
  NCAR_REQUIRE(in.size() == out.size(), "buffer size mismatch");
  const long n = static_cast<long>(in.size());
  const double sign = inverse ? 1.0 : -1.0;
  for (long k = 0; k < n; ++k) {
    cd acc = 0;
    for (long j = 0; j < n; ++j) {
      const double ang = sign * kTau * static_cast<double>(j * k) /
                         static_cast<double>(n);
      acc += in[static_cast<std::size_t>(j)] * cd(std::cos(ang), std::sin(ang));
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
}

}  // namespace ncar::fft
