#include "baselines/fplus_lda.hpp"

#include <algorithm>

#include "corpus/chunking.hpp"
#include "util/philox.hpp"
#include "util/stopwatch.hpp"

namespace culda::baselines {

FPlusLda::FPlusLda(const corpus::Corpus& corpus,
                   const core::CuldaConfig& cfg)
    : CpuStateSolver(corpus, cfg), q_tree_(cfg.num_topics) {
  core::RequireSymmetricAlpha(cfg_, name());
  layout_ = corpus::BuildWordFirstChunk(
      corpus, corpus::PartitionByTokens(corpus, 1)[0]);
  doc_topics_.resize(corpus.num_docs());
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    for (uint32_t k = 0; k < cfg_.num_topics; ++k) {
      if (state_.nd(d, k) != 0) {
        doc_topics_[d].push_back({static_cast<uint16_t>(k), state_.nd(d, k)});
      }
    }
  }
}

void FPlusLda::DecDoc(uint32_t d, uint16_t k) {
  auto& list = doc_topics_[d];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].topic == k) {
      if (--list[i].count == 0) {
        list[i] = list.back();
        list.pop_back();
      }
      return;
    }
  }
  CULDA_CHECK_MSG(false, "doc topic list missing topic");
}

void FPlusLda::IncDoc(uint32_t d, uint16_t k) {
  auto& list = doc_topics_[d];
  for (auto& e : list) {
    if (e.topic == k) {
      ++e.count;
      return;
    }
  }
  list.push_back({k, 1});
}

core::IterationStats FPlusLda::Step() {
  Stopwatch wall;
  CpuLdaState& s = state_;
  const uint32_t k_topics = s.num_topics;
  const uint32_t v_words = s.corpus->vocab_size();
  const double alpha = s.alpha, beta = s.beta;
  const double beta_v = beta * v_words;
  CpuCostTracker cost;
  ++iteration_;

  std::vector<float> q(k_topics);
  for (uint32_t v = 0; v < v_words; ++v) {
    const uint64_t begin = layout_.word_offsets[v];
    const uint64_t end = layout_.word_offsets[v + 1];
    if (begin == end) continue;

    // Build α·q(k) for this word once, then maintain it incrementally.
    for (uint32_t k = 0; k < k_topics; ++k) {
      q[k] = static_cast<float>(
          alpha * (s.nw(k, v) + beta) /
          (static_cast<double>(s.nk[k]) + beta_v));
    }
    q_tree_.Build(q);
    cost.StreamRead(k_topics * 12);  // nw row slice + nk
    cost.StreamWrite(k_topics * 4);
    cost.Flops(4ull * k_topics);

    auto refresh_topic = [&](uint16_t k) {
      q_tree_.Set(k, static_cast<float>(
                         alpha * (s.nw(k, v) + beta) /
                         (static_cast<double>(s.nk[k]) + beta_v)));
      // log K tree nodes touched.
      cost.RandomReads(2, 8);
      cost.Flops(20);
    };

    for (uint64_t t = begin; t < end; ++t) {
      const uint32_t d = layout_.token_doc[t];
      uint16_t& z = s.z[layout_.token_global[t]];
      const uint16_t old_k = z;

      // Decrement.
      --s.nd(d, old_k);
      --s.nw(old_k, v);
      --s.nk[old_k];
      DecDoc(d, old_k);
      refresh_topic(old_k);
      cost.RandomRead(4);
      cost.RandomWrite(12);

      // Sparse doc bucket s = Σ n_dk · q(k)/α  … computed with the same
      // q(k) values (q_tree leaves), scaled back by 1/α.
      const auto& list = doc_topics_[d];
      double s_mass = 0;
      for (const TopicCount& e : list) {
        s_mass += e.count * static_cast<double>(q_tree_.Get(e.topic));
      }
      s_mass /= alpha;
      cost.StreamRead(list.size() * 6);
      cost.RandomReads(list.size(), 4);
      cost.Flops(3 * list.size());

      const double q_mass = q_tree_.Total();
      PhiloxStream rng(cfg_.seed, (static_cast<uint64_t>(iteration_) << 40) ^
                                      layout_.token_global[t]);
      double u = rng.NextDouble() * (s_mass + q_mass);

      uint16_t new_k;
      if (u < s_mass) {
        new_k = list.empty() ? old_k : list.back().topic;
        double acc = 0;
        for (const TopicCount& e : list) {
          acc += e.count * static_cast<double>(q_tree_.Get(e.topic)) / alpha;
          if (acc > u) {
            new_k = e.topic;
            break;
          }
        }
        cost.Flops(3 * list.size());
      } else {
        new_k = static_cast<uint16_t>(
            q_tree_.Sample(static_cast<float>(u - s_mass)));
        cost.RandomReads(2, 8);  // log K descent
        cost.Flops(20);
      }

      // Increment.
      z = new_k;
      ++s.nd(d, new_k);
      ++s.nw(new_k, v);
      ++s.nk[new_k];
      IncDoc(d, new_k);
      refresh_topic(new_k);
      cost.RandomWrite(14);
    }
  }

  return FinishStep(cost.Seconds(), wall.Seconds());
}

void FPlusLda::Validate() const {
  state_.Validate();
  // z ↔ counts, walking the sweep's word-major order.
  const corpus::Corpus& c = *state_.corpus;
  sparse::DenseMatrix<int32_t> nd_ref(c.num_docs(), cfg_.num_topics);
  sparse::DenseMatrix<int32_t> nw_ref(cfg_.num_topics, c.vocab_size());
  for (uint64_t t = 0; t < layout_.num_tokens(); ++t) {
    const uint16_t k = state_.z[layout_.token_global[t]];
    ++nd_ref(layout_.token_doc[t], k);
    ++nw_ref(k, layout_.token_word[t]);
  }
  CULDA_CHECK(std::ranges::equal(nd_ref.flat(), state_.nd.flat()));
  CULDA_CHECK(std::ranges::equal(nw_ref.flat(), state_.nw.flat()));
  // Doc lists agree with dense counts.
  for (size_t d = 0; d < c.num_docs(); ++d) {
    int64_t list_sum = 0;
    for (const TopicCount& e : doc_topics_[d]) {
      CULDA_CHECK(e.count == state_.nd(d, e.topic));
      list_sum += e.count;
    }
    CULDA_CHECK(list_sum == static_cast<int64_t>(c.DocLength(d)));
  }
}

}  // namespace culda::baselines
