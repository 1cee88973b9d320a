// SparseLDA (Yao, Mimno, McCallum, KDD'09) — the sparsity-aware exact CGS
// sampler CuLDA's S/Q decomposition descends from (cited as [32]).
//
// The conditional factors into three buckets:
//
//   p(k) ∝ αβ/(n_k+βV)            ["smoothing", s — global]
//        + n_dk·β/(n_k+βV)        ["document", r — sparse in the doc]
//        + (n_dk+α)·n_kv/(n_k+βV) ["topic-word", q — sparse in the word]
//
// s is maintained incrementally, r per document, and q is computed per token
// by walking the word's non-zero topic list, so a token costs
// O(K_d + K_w) ≪ O(K). Exact decrement/increment Gibbs semantics.
#pragma once

#include "baselines/cpu_state.hpp"
#include "core/config.hpp"

namespace culda::baselines {

class SparseLdaCgs final : public CpuStateSolver {
 public:
  SparseLdaCgs(const corpus::Corpus& corpus, const core::CuldaConfig& cfg);

  std::string name() const override { return "SparseLDA (CPU, exact)"; }
  core::IterationStats Step() override;

  /// Internal-structure consistency (word topic lists vs dense nw);
  /// throws on violation. For tests.
  void ValidateStructures() const;

 private:
  struct TopicCount {
    uint16_t topic;
    int32_t count;
  };

  void DecWord(uint32_t w, uint16_t k);
  void IncWord(uint32_t w, uint16_t k);

  /// Per-word non-zero topic lists (the q-bucket support).
  std::vector<std::vector<TopicCount>> word_topics_;
  std::vector<double> coef_;  ///< (n_dk+α)/(n_k+βV) for the current doc
};

}  // namespace culda::baselines
