#include "common/array.hpp"

#include <gtest/gtest.h>

namespace {

using ncar::Array2D;
using ncar::Array3D;
using ncar::Uninitialized;

TEST(Array2D, ColumnMajorLayout) {
  Array2D<double> a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  auto flat = a.flat();
  // Fortran layout: first column contiguous, then second column.
  EXPECT_DOUBLE_EQ(flat[0], 1);
  EXPECT_DOUBLE_EQ(flat[1], 2);
  EXPECT_DOUBLE_EQ(flat[2], 3);
  EXPECT_DOUBLE_EQ(flat[3], 4);
}

TEST(Array2D, ColumnSpanIsUnitStrideAxis) {
  Array2D<double> a(4, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 4; ++i) a(i, j) = static_cast<double>(10 * j + i);
  auto col = a.column(2);
  ASSERT_EQ(col.size(), 4u);
  EXPECT_DOUBLE_EQ(col[0], 20);
  EXPECT_DOUBLE_EQ(col[3], 23);
}

TEST(Array2D, ColumnIndexOutOfRangeThrows) {
  Array2D<double> a(2, 2);
  EXPECT_THROW(a.column(2), ncar::precondition_error);
}

TEST(Array2D, FillSetsEveryElement) {
  Array2D<int> a(5, 5, 1);
  a.fill(9);
  for (int v : a.flat()) EXPECT_EQ(v, 9);
}

TEST(Array3D, PlaneIsContiguousIJSlice) {
  Array3D<double> a(2, 3, 4);
  a(1, 2, 3) = 42.0;
  auto p = a.plane(3);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_DOUBLE_EQ(p[1 + 2 * 2], 42.0);
}

TEST(Array3D, IndexingRoundTrips) {
  Array3D<int> a(3, 4, 5);
  int v = 0;
  for (std::size_t k = 0; k < 5; ++k)
    for (std::size_t j = 0; j < 4; ++j)
      for (std::size_t i = 0; i < 3; ++i) a(i, j, k) = v++;
  v = 0;
  for (std::size_t k = 0; k < 5; ++k)
    for (std::size_t j = 0; j < 4; ++j)
      for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a(i, j, k), v++);
  // Column-major: consecutive v values are contiguous in memory.
  EXPECT_EQ(a.flat()[0], 0);
  EXPECT_EQ(a.flat()[1], 1);
}

TEST(Array3D, DefaultConstructedIsEmpty) {
  Array3D<double> a;
  EXPECT_EQ(a.size(), 0u);
}

TEST(Array3D, UninitializedSizesAndCopiesLikeFilled) {
  Array3D<double> a(3, 4, 5, Uninitialized{});
  EXPECT_EQ(a.size(), 60u);
  EXPECT_EQ(a.plane(4).size(), 12u);
  a.fill(2.5);
  const Array3D<double> b = a;
  for (double v : b.flat()) EXPECT_EQ(v, 2.5);
  // The value constructor still fills.
  const Array3D<double> z(3, 4, 5);
  for (double v : z.flat()) EXPECT_EQ(v, 0.0);
}

}  // namespace
