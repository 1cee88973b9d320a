// Unit tests for the sparse/dense matrix substrate.
#include <gtest/gtest.h>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "util/check.hpp"

namespace culda::sparse {
namespace {

using Csr16 = CsrMatrix<uint16_t, int32_t>;

Csr16 SmallMatrix() {
  // rows: {0:(1,5),(3,2)}, {1:(0,1)}, {2: empty}, {3:(2,7)}
  Csr16 m(4, 4);
  Csr16::RowBuilder b(&m);
  {
    const uint16_t i0[] = {1, 3};
    const int32_t v0[] = {5, 2};
    b.AppendRow(0, i0, v0);
  }
  {
    const uint16_t i1[] = {0};
    const int32_t v1[] = {1};
    b.AppendRow(1, i1, v1);
  }
  b.AppendRow(2, {}, {});
  {
    const uint16_t i3[] = {2};
    const int32_t v3[] = {7};
    b.AppendRow(3, i3, v3);
  }
  b.Finish();
  return m;
}

TEST(Csr, EmptyMatrixIsValid) {
  Csr16 m(3, 5);
  m.Validate();
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.RowLength(1), 0u);
}

TEST(Csr, RowBuilderProducesExpectedStructure) {
  const Csr16 m = SmallMatrix();
  m.Validate();
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.RowLength(0), 2u);
  EXPECT_EQ(m.RowLength(2), 0u);
  EXPECT_EQ(m.At(0, 1), 5);
  EXPECT_EQ(m.At(0, 3), 2);
  EXPECT_EQ(m.At(0, 2), 0);
  EXPECT_EQ(m.At(3, 2), 7);
}

TEST(Csr, RowBuilderEnforcesOrder) {
  Csr16 m(2, 2);
  Csr16::RowBuilder b(&m);
  EXPECT_THROW(b.AppendRow(1, {}, {}), Error);
}

TEST(Csr, RowBuilderFinishChecksCompleteness) {
  Csr16 m(2, 2);
  Csr16::RowBuilder b(&m);
  b.AppendRow(0, {}, {});
  EXPECT_THROW(b.Finish(), Error);
}

TEST(Csr, AssignFromDense) {
  Csr16 m(3, 5);
  m.AssignFromDense([](size_t r, std::span<int32_t> row) {
    if (r == 0) row[2] = 9;
    if (r == 2) {
      row[0] = 1;
      row[4] = 4;
    }
  });
  m.Validate();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 2), 9);
  EXPECT_EQ(m.At(2, 4), 4);
  EXPECT_EQ(m.RowLength(1), 0u);
}

TEST(Csr, RowBytesCountsIndexAndValue) {
  const Csr16 m = SmallMatrix();
  EXPECT_EQ(m.RowBytes(0), 2u * (2 + 4));
}

TEST(Csr, IndexTypeCapacityEnforced) {
  EXPECT_NO_THROW((CsrMatrix<uint16_t, int32_t>(1, 65536)));
  EXPECT_THROW((CsrMatrix<uint16_t, int32_t>(1, 65537)), Error);
  EXPECT_NO_THROW((CsrMatrix<uint32_t, int32_t>(1, 1 << 20)));
}

TEST(Csr, WideIndexVariantWorks) {
  CsrMatrix<uint32_t, int32_t> m(2, 100000);
  CsrMatrix<uint32_t, int32_t>::RowBuilder b(&m);
  const uint32_t i0[] = {99999};
  const int32_t v0[] = {3};
  b.AppendRow(0, i0, v0);
  b.AppendRow(1, {}, {});
  b.Finish();
  m.Validate();
  EXPECT_EQ(m.At(0, 99999), 3);
}

TEST(Csr, MutableValues) {
  Csr16 m = SmallMatrix();
  m.mutable_values()[0] = 42;
  EXPECT_EQ(m.At(0, 1), 42);
}

TEST(Dense, FillAndIndex) {
  DenseMatrix<uint16_t> m(3, 4);
  m.Fill(7);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = 9;
  EXPECT_EQ(m(1, 2), 9);
  EXPECT_EQ(m.Row(1)[2], 9);
}

TEST(Dense, TotalBytes) {
  DenseMatrix<uint16_t> m(10, 20);
  EXPECT_EQ(m.TotalBytes(), 400u);
}

}  // namespace
}  // namespace culda::sparse
