// F+LDA (Yu, Hsieh, Yun, Vishwanathan, Dhillon — WWW'15, the paper's
// reference [33]): exact collapsed Gibbs with a word-major sweep and an
// incrementally maintained F+ tree.
//
// The conditional splits like CuLDA's (Eq. 6):
//
//   p(k) ∝ n_dk · q(k)  +  α · q(k),    q(k) = (n_kv + β)/(n_k + βV)
//
// Processing tokens word-by-word means q(k) changes only at the two topics a
// token moves between, so the dense bucket lives in an F+ tree with
// O(log K) point updates and O(log K) draws, while the sparse doc bucket is
// an O(K_d) walk — giving an exact O(K_d + log K) sampler. This is the
// closest sequential ancestor of CuLDA's tree-based GPU sampler and the
// natural third CPU comparison point between dense CGS and SparseLDA.
#pragma once

#include "baselines/cpu_state.hpp"
#include "baselines/fplus_tree.hpp"
#include "core/config.hpp"
#include "corpus/word_first.hpp"

namespace culda::baselines {

class FPlusLda final : public CpuStateSolver {
 public:
  FPlusLda(const corpus::Corpus& corpus, const core::CuldaConfig& cfg);

  std::string name() const override { return "F+LDA (CPU, exact O(logK))"; }
  core::IterationStats Step() override;

  /// Count-consistency invariants (dense counts vs z vs doc lists).
  void Validate() const;

 private:
  struct TopicCount {
    uint16_t topic;
    int32_t count;
  };
  void DecDoc(uint32_t d, uint16_t k);
  void IncDoc(uint32_t d, uint16_t k);

  /// The whole corpus, word-major: the sweep visits token t = the corpus
  /// token layout_.token_global[t].
  corpus::WordFirstChunk layout_;
  std::vector<std::vector<TopicCount>> doc_topics_;  ///< sparse θ rows
  FPlusTree q_tree_;  ///< α·q(k) for the current word
};

}  // namespace culda::baselines
