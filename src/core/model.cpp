#include "core/model.hpp"

#include <algorithm>

#include "corpus/corpus.hpp"

namespace culda::core {

void WordMajorPhi::CopyToTopicMajor(PhiMatrix& out, uint32_t word_begin,
                                    uint32_t word_end) const {
  const uint32_t K = num_topics();
  CULDA_CHECK(out.rows() == K && out.cols() == vocab_size());
  CULDA_CHECK(word_begin <= word_end && word_end <= vocab_size());
  // Square tiles small enough that a tile's source rows and destination
  // rows both stay in L1 while it is transposed.
  constexpr uint32_t kTile = 64;
  const uint16_t* src = words_.flat().data();
  for (uint32_t w0 = word_begin; w0 < word_end; w0 += kTile) {
    const uint32_t w1 = std::min(word_end, w0 + kTile);
    for (uint32_t k0 = 0; k0 < K; k0 += kTile) {
      const uint32_t k1 = std::min(K, k0 + kTile);
      for (uint32_t k = k0; k < k1; ++k) {
        uint16_t* dst = out.Row(k).data();
        for (uint32_t w = w0; w < w1; ++w) {
          dst[w] = src[static_cast<size_t>(w) * K + k];
        }
      }
    }
  }
}

PhiMatrix WordMajorPhi::TopicMajor() const {
  PhiMatrix out(num_topics(), vocab_size());
  CopyToTopicMajor(out, 0, vocab_size());
  return out;
}

void PhiReplica::RecomputeTotals() {
  // Unsigned 32-bit sums wrap exactly as the int32 n_k conversion does, and
  // keep the per-word pass narrow.
  std::vector<uint32_t> sums(num_topics, 0);
  for (uint32_t w = 0; w < vocab_size; ++w) {
    const std::span<const uint16_t> counts = phi.Word(w);
    for (uint32_t k = 0; k < num_topics; ++k) sums[k] += counts[k];
  }
  for (uint32_t k = 0; k < num_topics; ++k) {
    nk[k] = static_cast<int32_t>(sums[k]);
  }
}

void GatheredModel::Validate(const corpus::Corpus& corpus) const {
  CULDA_CHECK(theta.rows() == corpus.num_docs());
  CULDA_CHECK(vocab_size == corpus.vocab_size());
  theta.Validate();

  // Σ_k θ_dk = len_d for every document.
  for (size_t d = 0; d < theta.rows(); ++d) {
    int64_t sum = 0;
    for (const int32_t c : theta.RowValues(d)) {
      CULDA_CHECK_MSG(c > 0, "θ stores a non-positive count");
      sum += c;
    }
    CULDA_CHECK_MSG(sum == static_cast<int64_t>(corpus.DocLength(d)),
                    "θ row " << d << " sums to " << sum << ", expected "
                             << corpus.DocLength(d));
  }

  // Σ_v φ_kv = n_k and ΣΣ φ = total token count.
  CULDA_CHECK(nk.size() == num_topics);
  uint64_t grand = 0;
  for (uint32_t k = 0; k < num_topics; ++k) {
    uint64_t sum = 0;
    for (const uint16_t c : phi.Row(k)) sum += c;
    CULDA_CHECK_MSG(sum == static_cast<uint64_t>(nk[k]),
                    "n_k[" << k << "] = " << nk[k] << " but φ row sums to "
                           << sum);
    grand += sum;
  }
  CULDA_CHECK_MSG(grand == corpus.num_tokens(),
                  "φ counts " << grand << " tokens, corpus has "
                              << corpus.num_tokens());
}

}  // namespace culda::core
