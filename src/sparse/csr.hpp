// Compressed sparse row matrix with a parameterized index type.
//
// CuLDA stores the document–topic matrix θ in CSR with 16-bit column indices
// (topics: K < 2^16) as its "precision compression" optimization
// (Section 6.1.3); the ablation bench flips Idx to uint32_t to measure what
// the compression buys. Rows are documents, columns topics, values counts.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace culda::sparse {

template <typename Idx = uint16_t, typename Val = int32_t>
class CsrMatrix {
 public:
  using index_type = Idx;
  using value_type = Val;

  CsrMatrix() = default;

  /// An empty matrix with `rows` rows and `cols` columns.
  CsrMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
    CULDA_CHECK_MSG(cols <= std::numeric_limits<Idx>::max() + size_t{1},
                    "column count " << cols << " does not fit index type");
  }

  /// Adopts finished CSR arrays (e.g. a deserialized matrix) without
  /// copying them; throws culda::Error unless they form a valid matrix.
  CsrMatrix(size_t rows, size_t cols, std::vector<uint64_t> row_ptr,
            std::vector<Idx> col_idx, std::vector<Val> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    CULDA_CHECK_MSG(cols <= std::numeric_limits<Idx>::max() + size_t{1},
                    "column count " << cols << " does not fit index type");
    Validate();
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  std::span<const uint64_t> row_ptr() const { return row_ptr_; }
  std::span<const Idx> col_idx() const { return col_idx_; }
  std::span<const Val> values() const { return values_; }
  std::span<Val> mutable_values() { return values_; }

  size_t RowLength(size_t r) const {
    CULDA_DCHECK(r < rows_);
    return static_cast<size_t>(row_ptr_[r + 1] - row_ptr_[r]);
  }
  std::span<const Idx> RowIndices(size_t r) const {
    CULDA_DCHECK(r < rows_);
    return {col_idx_.data() + row_ptr_[r], RowLength(r)};
  }
  std::span<const Val> RowValues(size_t r) const {
    CULDA_DCHECK(r < rows_);
    return {values_.data() + row_ptr_[r], RowLength(r)};
  }

  /// Bytes occupied by one row's indices+values — what the sampling kernel
  /// bills when it walks θ_d (index loads are L1-routed per Section 6.1.2).
  size_t RowBytes(size_t r) const {
    return RowLength(r) * (sizeof(Idx) + sizeof(Val));
  }
  size_t TotalBytes() const {
    return row_ptr_.size() * sizeof(uint64_t) +
           col_idx_.size() * sizeof(Idx) + values_.size() * sizeof(Val);
  }

  /// Value at (r, c), or 0 if absent. Linear scan — rows are short (Kd ≪ K);
  /// intended for tests and the evaluator, not the sampler hot path.
  Val At(size_t r, Idx c) const {
    const auto idx = RowIndices(r);
    const auto val = RowValues(r);
    for (size_t i = 0; i < idx.size(); ++i) {
      if (idx[i] == c) return val[i];
    }
    return Val{0};
  }

  /// Rebuilds the whole matrix from per-row dense histograms produced by
  /// `dense_row(r, scratch)` filling a `cols()`-sized scratch buffer.
  /// This mirrors the paper's θ-update: dense scatter then prefix-sum
  /// compaction (Section 6.2).
  template <typename DenseRowFn>
  void AssignFromDense(const DenseRowFn& dense_row) {
    std::vector<Val> scratch(cols_);
    row_ptr_.assign(rows_ + 1, 0);
    col_idx_.clear();
    values_.clear();
    for (size_t r = 0; r < rows_; ++r) {
      std::fill(scratch.begin(), scratch.end(), Val{0});
      dense_row(r, std::span<Val>(scratch));
      for (size_t c = 0; c < cols_; ++c) {
        if (scratch[c] != Val{0}) {
          col_idx_.push_back(static_cast<Idx>(c));
          values_.push_back(scratch[c]);
        }
      }
      row_ptr_[r + 1] = col_idx_.size();
    }
  }

  /// Replaces one row with the non-zeros of `dense` (length = cols()).
  /// Only valid when row lengths do not need to move other rows — i.e. when
  /// rebuilding rows in order into a fresh matrix; use RowBuilder below.
  class RowBuilder {
   public:
    explicit RowBuilder(CsrMatrix* m) : m_(m) {
      m_->col_idx_.clear();
      m_->values_.clear();
      m_->row_ptr_.assign(m_->rows_ + 1, 0);
    }
    /// Appends row `r`'s non-zeros; rows must be appended in order 0..rows-1.
    void AppendRow(size_t r, std::span<const Idx> idx,
                   std::span<const Val> val) {
      CULDA_CHECK(r == next_row_);
      CULDA_CHECK(idx.size() == val.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        m_->col_idx_.push_back(idx[i]);
        m_->values_.push_back(val[i]);
      }
      m_->row_ptr_[r + 1] = m_->col_idx_.size();
      ++next_row_;
    }
    void Finish() {
      CULDA_CHECK_MSG(next_row_ == m_->rows_, "not all rows appended");
    }

   private:
    CsrMatrix* m_;
    size_t next_row_ = 0;
  };

  /// Structural validation; throws culda::Error on corruption.
  void Validate() const {
    CULDA_CHECK(row_ptr_.size() == rows_ + 1);
    CULDA_CHECK(row_ptr_.front() == 0);
    CULDA_CHECK(row_ptr_.back() == col_idx_.size());
    CULDA_CHECK(col_idx_.size() == values_.size());
    for (size_t r = 0; r < rows_; ++r) {
      CULDA_CHECK(row_ptr_[r] <= row_ptr_[r + 1]);
    }
    for (const Idx c : col_idx_) {
      CULDA_CHECK(static_cast<size_t>(c) < cols_);
    }
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint64_t> row_ptr_;
  std::vector<Idx> col_idx_;
  std::vector<Val> values_;
};

}  // namespace culda::sparse
