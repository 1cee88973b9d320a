// Row-major dense matrix with a parameterized element type.
//
// The topic–word matrix φ (K×V) is dense; CuLDA compresses it to 16-bit
// counts (Section 6.1.3). Per-topic totals n_k = Σ_v φ_kv are kept in 32-bit
// alongside, since they exceed 2^16 on real corpora.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace culda::sparse {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{0}) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  size_t TotalBytes() const { return data_.size() * sizeof(T); }

  T& operator()(size_t r, size_t c) {
    CULDA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  T operator()(size_t r, size_t c) const {
    CULDA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<T> Row(size_t r) {
    CULDA_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> Row(size_t r) const {
    CULDA_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }

  void Fill(T v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace culda::sparse
