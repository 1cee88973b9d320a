#include "baselines/fplus_lda.hpp"

#include <cmath>

#include "core/training_state.hpp"
#include "corpus/chunking.hpp"
#include "util/philox.hpp"

namespace culda::baselines {

FPlusLda::FPlusLda(const corpus::Corpus& corpus,
                   const core::CuldaConfig& cfg)
    : corpus_(&corpus),
      cfg_(cfg),
      alpha_(cfg.EffectiveAlpha()),
      beta_(cfg.beta),
      q_tree_(cfg.num_topics) {
  cfg_.Validate();
  layout_ = corpus::BuildWordFirstChunk(
      corpus, corpus::PartitionByTokens(corpus, 1)[0]);

  const uint32_t k_topics = cfg_.num_topics;
  z_.resize(layout_.num_tokens());
  nd_ = sparse::DenseMatrix<int32_t>(corpus.num_docs(), k_topics);
  nw_ = sparse::DenseMatrix<int32_t>(k_topics, corpus.vocab_size());
  nk_.assign(k_topics, 0);
  doc_topics_.resize(corpus.num_docs());

  for (uint64_t t = 0; t < z_.size(); ++t) {
    const uint16_t k =
        core::InitialTopic(cfg_.seed, layout_.token_global[t], k_topics);
    z_[t] = k;
    const uint32_t d = layout_.token_doc[t];
    ++nd_(d, k);
    ++nw_(k, layout_.token_word[t]);
    ++nk_[k];
  }
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    for (uint32_t k = 0; k < k_topics; ++k) {
      if (nd_(d, k) != 0) {
        doc_topics_[d].push_back({static_cast<uint16_t>(k), nd_(d, k)});
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

void FPlusLda::Step() {
  const uint32_t k_topics = cfg_.num_topics;
  const uint32_t v_words = corpus_->vocab_size();
  const double beta_v = beta_ * v_words;
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
          alpha_ * (nw_(k, v) + beta_) /
          (static_cast<double>(nk_[k]) + beta_v));
    }
    q_tree_.Build(q);
    cost.StreamRead(k_topics * 12);  // nw row slice + nk
    cost.StreamWrite(k_topics * 4);
    cost.Flops(4ull * k_topics);

    auto refresh_topic = [&](uint16_t k) {
      q_tree_.Set(k, static_cast<float>(
                         alpha_ * (nw_(k, v) + beta_) /
                         (static_cast<double>(nk_[k]) + beta_v)));
      // log K tree nodes touched.
      cost.RandomReads(2, 8);
      cost.Flops(20);
    };

    for (uint64_t t = begin; t < end; ++t) {
      const uint32_t d = layout_.token_doc[t];
      const uint16_t old_k = z_[t];

      // Decrement.
      --nd_(d, old_k);
      --nw_(old_k, v);
      --nk_[old_k];
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
      s_mass /= alpha_;
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
          acc += e.count * static_cast<double>(q_tree_.Get(e.topic)) /
                 alpha_;
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
      z_[t] = new_k;
      ++nd_(d, new_k);
      ++nw_(new_k, v);
      ++nk_[new_k];
      IncDoc(d, new_k);
      refresh_topic(new_k);
      cost.RandomWrite(14);
    }
  }

  const double step_s = cost.Seconds();
  modeled_seconds_ += step_s;
  last_tokens_per_sec_ =
      static_cast<double>(corpus_->num_tokens()) / step_s;
}

double FPlusLda::LogLikelihoodPerToken() const {
  // Same joint formula as CpuLdaState, over this class's counts.
  const uint32_t k_topics = cfg_.num_topics;
  const uint32_t v_words = corpus_->vocab_size();
  const double lg_alpha = std::lgamma(alpha_);
  const double lg_beta = std::lgamma(beta_);
  double ll = 0;
  for (size_t d = 0; d < corpus_->num_docs(); ++d) {
    double row = 0;
    for (uint32_t k = 0; k < k_topics; ++k) {
      const int32_t c = nd_(d, k);
      row += c != 0 ? std::lgamma(c + alpha_) : lg_alpha;
    }
    ll += row - k_topics * lg_alpha + std::lgamma(k_topics * alpha_) -
          std::lgamma(static_cast<double>(corpus_->DocLength(d)) +
                      k_topics * alpha_);
  }
  for (uint32_t k = 0; k < k_topics; ++k) {
    double row = 0;
    for (uint32_t v = 0; v < v_words; ++v) {
      const int32_t c = nw_(k, v);
      row += c != 0 ? std::lgamma(c + beta_) : lg_beta;
    }
    ll += row - v_words * lg_beta + std::lgamma(v_words * beta_) -
          std::lgamma(static_cast<double>(nk_[k]) + v_words * beta_);
  }
  return ll / static_cast<double>(corpus_->num_tokens());
}

void FPlusLda::Validate() const {
  const uint32_t k_topics = cfg_.num_topics;
  // z ↔ counts.
  sparse::DenseMatrix<int32_t> nd_ref(corpus_->num_docs(), k_topics);
  sparse::DenseMatrix<int32_t> nw_ref(k_topics, corpus_->vocab_size());
  for (uint64_t t = 0; t < z_.size(); ++t) {
    ++nd_ref(layout_.token_doc[t], z_[t]);
    ++nw_ref(z_[t], layout_.token_word[t]);
  }
  int64_t grand = 0;
  for (size_t d = 0; d < corpus_->num_docs(); ++d) {
    for (uint32_t k = 0; k < k_topics; ++k) {
      CULDA_CHECK(nd_(d, k) == nd_ref(d, k));
    }
    // Doc lists agree with dense counts.
    int64_t list_sum = 0;
    for (const TopicCount& e : doc_topics_[d]) {
      CULDA_CHECK(e.count == nd_(d, e.topic));
      list_sum += e.count;
    }
    CULDA_CHECK(list_sum == static_cast<int64_t>(corpus_->DocLength(d)));
  }
  for (uint32_t k = 0; k < k_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < corpus_->vocab_size(); ++v) {
      CULDA_CHECK(nw_(k, v) == nw_ref(k, v));
      sum += nw_(k, v);
    }
    CULDA_CHECK(sum == nk_[k]);
    grand += sum;
  }
  CULDA_CHECK(grand == static_cast<int64_t>(corpus_->num_tokens()));
}

}  // namespace culda::baselines
