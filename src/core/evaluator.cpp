#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/check.hpp"

namespace culda::core {

namespace {

/// Memo table for lgamma(c + shift) over small integer c. The counts in θ
/// and φ are small integers, so the same handful of lgamma values is
/// recomputed millions of times; the table stores exactly
/// std::lgamma(double(c) + shift), so lookups are bitwise-identical to the
/// direct calls they replace (out-of-range c falls back to the direct call).
class LgammaShiftTable {
 public:
  LgammaShiftTable(double shift, size_t entries)
      : shift_(shift), table_(entries) {
    for (size_t c = 0; c < entries; ++c) {
      table_[c] = std::lgamma(static_cast<double>(c) + shift_);
    }
  }

  double operator()(int64_t c) const {
    return c >= 0 && static_cast<size_t>(c) < table_.size()
               ? table_[static_cast<size_t>(c)]
               : std::lgamma(static_cast<double>(c) + shift_);
  }

 private:
  double shift_;
  std::vector<double> table_;
};

}  // namespace

double LogLikelihoodPerToken(const GatheredModel& model,
                             const CuldaConfig& cfg, ThreadPool* pool) {
  const double beta = cfg.beta;
  const uint32_t k_topics = model.num_topics;
  const uint32_t v_words = model.vocab_size;
  CULDA_CHECK(k_topics > 0 && v_words > 0);
  const bool symmetric = cfg.asymmetric_alpha.empty();
  const double alpha = cfg.EffectiveAlpha();
  const double alpha_sum = cfg.AlphaSum();

  const double lg_beta = std::lgamma(beta);
  const double lg_alpha_sum = std::lgamma(alpha_sum);
  const double lg_v_beta = std::lgamma(v_words * beta);
  // lΓ(α_k) per topic (one value when symmetric).
  std::vector<double> lg_alpha_k;
  if (!symmetric) {
    lg_alpha_k.resize(k_topics);
    for (uint32_t k = 0; k < k_topics; ++k) {
      lg_alpha_k[k] = std::lgamma(cfg.asymmetric_alpha[k]);
    }
  }
  const double lg_alpha = symmetric ? std::lgamma(alpha) : 0.0;

  // φ counts are uint16, so one full-range table covers every cell; θ
  // counts are bounded by the longest document (capped — longer rows fall
  // back to direct lgamma).
  const LgammaShiftTable lg_phi(beta, size_t{1} << 16);
  size_t theta_entries = 0;
  if (symmetric) {
    int32_t max_theta = 0;
    for (const int32_t v : model.theta.values()) {
      max_theta = std::max(max_theta, v);
    }
    theta_entries =
        std::min<size_t>(static_cast<size_t>(max_theta) + 1, size_t{1} << 20);
  }
  const LgammaShiftTable lg_theta(alpha, theta_entries);

  const auto run = [&](size_t n, const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  // Document side: Σ_k lΓ(θ_dk + α_k) − Σ_k lΓ(α_k) + lΓ(Σα) − lΓ(len+Σα);
  // zero entries cancel pairwise, so only the non-zeros contribute deltas.
  // Fixed-size chunks (not worker-count-sized ranges) keep the reduction
  // order — and thus the value — independent of the pool.
  constexpr size_t kDocChunk = 256;
  const size_t num_docs = model.theta.rows();
  const size_t doc_chunks = (num_docs + kDocChunk - 1) / kDocChunk;
  std::vector<double> chunk_ll(doc_chunks, 0.0);
  std::vector<uint64_t> chunk_tokens(doc_chunks, 0);
  run(doc_chunks, [&](size_t c) {
    const size_t begin = c * kDocChunk;
    const size_t end = std::min(num_docs, begin + kDocChunk);
    double ll = 0;
    uint64_t tokens = 0;
    for (size_t d = begin; d < end; ++d) {
      const auto idx = model.theta.RowIndices(d);
      const auto vals = model.theta.RowValues(d);
      uint64_t len = 0;
      double row = 0;
      for (size_t i = 0; i < vals.size(); ++i) {
        if (symmetric) {
          row += lg_theta(vals[i]) - lg_alpha;
        } else {
          const double a_k = cfg.asymmetric_alpha[idx[i]];
          row += std::lgamma(vals[i] + a_k) - lg_alpha_k[idx[i]];
        }
        len += static_cast<uint64_t>(vals[i]);
      }
      ll += row + lg_alpha_sum -
            std::lgamma(static_cast<double>(len) + alpha_sum);
      tokens += len;
    }
    chunk_ll[c] = ll;
    chunk_tokens[c] = tokens;
  });

  // Topic side: one partial per topic, each summed over v ascending and
  // reduced in topic order. φ is word-major, so each task owns a fixed block
  // of topics and walks every word's slice of it; the per-topic sums add
  // the same terms in the same order for any block width or pool.
  constexpr uint32_t kTopicBlock = 64;
  std::vector<double> topic_ll(k_topics, 0.0);
  std::vector<uint64_t> nonzero(k_topics, 0);
  run((k_topics + kTopicBlock - 1) / kTopicBlock, [&](size_t b) {
    const uint32_t k_begin = static_cast<uint32_t>(b) * kTopicBlock;
    const uint32_t k_end = std::min(k_topics, k_begin + kTopicBlock);
    for (uint32_t v = 0; v < v_words; ++v) {
      const uint16_t* counts = model.phi.Word(v).data();
      for (uint32_t k = k_begin; k < k_end; ++k) {
        if (counts[k] != 0) {
          topic_ll[k] += lg_phi(counts[k]);
          ++nonzero[k];
        }
      }
    }
    for (uint32_t k = k_begin; k < k_end; ++k) {
      const double acc = topic_ll[k] +
                         static_cast<double>(v_words - nonzero[k]) * lg_beta;
      topic_ll[k] = acc - v_words * lg_beta + lg_v_beta -
                    std::lgamma(static_cast<double>(model.nk[k]) +
                                v_words * beta);
    }
  });

  double ll = 0;
  uint64_t total_tokens = 0;
  for (size_t c = 0; c < doc_chunks; ++c) {
    ll += chunk_ll[c];
    total_tokens += chunk_tokens[c];
  }
  for (uint32_t k = 0; k < k_topics; ++k) ll += topic_ll[k];

  CULDA_CHECK_MSG(total_tokens > 0, "model covers no tokens");
  return ll / static_cast<double>(total_tokens);
}

}  // namespace culda::core
