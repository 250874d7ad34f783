#pragma once
// Owning multi-dimensional arrays with contiguous, aligned storage.
//
// The geophysical models in this repository are Fortran re-implementations;
// these arrays use column-major ("leftmost index fastest") layout to keep the
// loop structure of the original codes — the loop ordering is the entire
// point of the RFFT/VFFT coding-style benchmark (paper section 4.3).

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ncar {

/// Constructor tag: size an array without writing its elements. The owner
/// writes every element before reading it, so the lanes that fill the
/// array do the first touch of its pages instead of a serial zero pass.
struct Uninitialized {};

namespace detail {

/// std::allocator whose value-less construct default-initialises (for
/// arithmetic T: leaves the element unwritten).
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// 2-D column-major array: a(i, j) with `i` fastest (Fortran a(ni, nj)).
template <typename T>
class Array2D {
public:
  Array2D() = default;
  Array2D(std::size_t ni, std::size_t nj, T init = T{})
      : ni_(ni), nj_(nj), data_(ni * nj, init) {}

  T& operator()(std::size_t i, std::size_t j) {
    return data_[i + ni_ * j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i + ni_ * j];
  }

  std::size_t ni() const { return ni_; }
  std::size_t nj() const { return nj_; }
  std::size_t size() const { return data_.size(); }

  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }

  /// Column j as a contiguous span (the unit-stride axis).
  std::span<T> column(std::size_t j) {
    NCAR_REQUIRE(j < nj_, "column index");
    return std::span<T>(data_.data() + ni_ * j, ni_);
  }
  std::span<const T> column(std::size_t j) const {
    NCAR_REQUIRE(j < nj_, "column index");
    return std::span<const T>(data_.data() + ni_ * j, ni_);
  }

  void fill(T v) { data_.assign(data_.size(), v); }

private:
  std::size_t ni_ = 0, nj_ = 0;
  std::vector<T> data_;
};

/// 3-D column-major array: a(i, j, k) with `i` fastest (Fortran a(ni,nj,nk)).
template <typename T>
class Array3D {
public:
  Array3D() = default;
  Array3D(std::size_t ni, std::size_t nj, std::size_t nk, T init = T{})
      : ni_(ni), nj_(nj), nk_(nk), data_(ni * nj * nk, init) {}
  Array3D(std::size_t ni, std::size_t nj, std::size_t nk, Uninitialized)
      : ni_(ni), nj_(nj), nk_(nk), data_(ni * nj * nk) {}

  T& operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[i + ni_ * (j + nj_ * k)];
  }
  const T& operator()(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[i + ni_ * (j + nj_ * k)];
  }

  std::size_t ni() const { return ni_; }
  std::size_t nj() const { return nj_; }
  std::size_t nk() const { return nk_; }
  std::size_t size() const { return data_.size(); }

  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }

  /// Contiguous (i, j) plane at level k.
  std::span<T> plane(std::size_t k) {
    NCAR_REQUIRE(k < nk_, "plane index");
    return std::span<T>(data_.data() + ni_ * nj_ * k, ni_ * nj_);
  }
  std::span<const T> plane(std::size_t k) const {
    NCAR_REQUIRE(k < nk_, "plane index");
    return std::span<const T>(data_.data() + ni_ * nj_ * k, ni_ * nj_);
  }

  void fill(T v) { data_.assign(data_.size(), v); }

private:
  std::size_t ni_ = 0, nj_ = 0, nk_ = 0;
  std::vector<T, detail::DefaultInitAllocator<T>> data_;
};

}  // namespace ncar
