#include "core/model.hpp"

#include <algorithm>

#include "corpus/corpus.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {

PhiMatrix WordMajorPhi::TopicMajor() const {
  const uint32_t K = num_topics();
  const uint32_t V = vocab_size();
  PhiMatrix out(K, V);
  // Square tiles small enough that a tile's source rows and destination
  // rows both stay in L1 while it is transposed.
  constexpr uint32_t kTile = 64;
  const uint16_t* src = words_.flat().data();
  for (uint32_t w0 = 0; w0 < V; w0 += kTile) {
    const uint32_t w1 = std::min(V, w0 + kTile);
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
  return out;
}

void PhiReplica::Clear() {
  phi.Fill(0);
  std::fill(nk.begin(), nk.end(), 0);
}

namespace {

/// Words per n_k tile: enough tiles to spread a large vocabulary over the
/// pool, few enough that the per-tile partials stay small.
constexpr uint32_t kNkTileWords = 256;
/// Topics summed per fixed-width inner loop. The fixed trip count is what
/// lets the compiler vectorize the widening adds at -O2.
constexpr uint32_t kNkLanes = 32;

}  // namespace

void PhiReplica::RecomputeTotals(ThreadPool* pool) {
  // Unsigned 32-bit sums wrap exactly as the int32 n_k conversion does, and
  // keep the per-word pass narrow. Each tile sums into its own partials,
  // which merge in tile order, so the totals never depend on the pool.
  const uint32_t K = num_topics;
  const size_t tiles = (vocab_size + kNkTileWords - 1) / kNkTileWords;
  std::vector<uint32_t> partials(tiles * K, 0);
  const auto sum_tile = [&](size_t t) {
    uint32_t* sums = partials.data() + t * K;
    const uint32_t w_begin = static_cast<uint32_t>(t) * kNkTileWords;
    const uint32_t w_end = std::min(vocab_size, w_begin + kNkTileWords);
    for (uint32_t w = w_begin; w < w_end; ++w) {
      const uint16_t* counts = phi.Word(w).data();
      uint32_t k = 0;
      for (; k + kNkLanes <= K; k += kNkLanes) {
        for (uint32_t j = 0; j < kNkLanes; ++j) sums[k + j] += counts[k + j];
      }
      for (; k < K; ++k) sums[k] += counts[k];
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(tiles, sum_tile);
  } else {
    for (size_t t = 0; t < tiles; ++t) sum_tile(t);
  }
  for (uint32_t k = 0; k < K; ++k) {
    uint32_t total = 0;
    for (size_t t = 0; t < tiles; ++t) total += partials[t * K + k];
    nk[k] = static_cast<int32_t>(total);
  }
}

void CheckWordFrequenciesFitPhi(const corpus::Corpus& corpus) {
  const std::vector<uint64_t> freq = corpus.WordFrequencies();
  for (size_t v = 0; v < freq.size(); ++v) {
    // The paper prunes stop words, which removes exactly these.
    CULDA_CHECK_MSG(freq[v] <= 0xFFFF,
                    "word " << v << " occurs " << freq[v]
                            << " times; 16-bit φ counts can overflow beyond "
                               "65535 occurrences — prune heavy/stop words "
                               "first");
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
