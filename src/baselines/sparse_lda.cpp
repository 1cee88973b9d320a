#include "baselines/sparse_lda.hpp"

#include <algorithm>
#include <limits>

#include "util/philox.hpp"
#include "util/stopwatch.hpp"

namespace culda::baselines {

SparseLdaCgs::SparseLdaCgs(const corpus::Corpus& corpus,
                           const core::CuldaConfig& cfg)
    : CpuStateSolver(corpus, cfg) {
  core::RequireSymmetricAlpha(cfg_, name());
  coef_.resize(cfg.num_topics);

  word_topics_.resize(corpus.vocab_size());
  for (uint32_t v = 0; v < corpus.vocab_size(); ++v) {
    for (uint32_t k = 0; k < cfg.num_topics; ++k) {
      const int32_t c = state_.nw(k, v);
      if (c != 0) {
        word_topics_[v].push_back({static_cast<uint16_t>(k), c});
      }
    }
  }
}

void SparseLdaCgs::DecWord(uint32_t w, uint16_t k) {
  auto& list = word_topics_[w];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].topic == k) {
      if (--list[i].count == 0) {
        list[i] = list.back();
        list.pop_back();
      }
      return;
    }
  }
  CULDA_CHECK_MSG(false, "word topic list missing topic");
}

void SparseLdaCgs::IncWord(uint32_t w, uint16_t k) {
  auto& list = word_topics_[w];
  for (auto& e : list) {
    if (e.topic == k) {
      ++e.count;
      return;
    }
  }
  list.push_back({k, 1});
}

core::IterationStats SparseLdaCgs::Step() {
  Stopwatch wall;
  CpuLdaState& s = state_;
  const corpus::Corpus& c = *s.corpus;
  const uint32_t k_topics = s.num_topics;
  const double alpha = s.alpha, beta = s.beta;
  const double beta_v = beta * c.vocab_size();
  CpuCostTracker cost;
  ++iteration_;

  // Smoothing bucket, rebuilt exactly once per sweep (it is maintained
  // incrementally inside; a fresh start bounds float drift).
  double s_mass = 0;
  for (uint32_t k = 0; k < k_topics; ++k) {
    s_mass += alpha * beta / (static_cast<double>(s.nk[k]) + beta_v);
  }
  cost.StreamRead(k_topics * 8);
  cost.Flops(3ull * k_topics);

  std::vector<TopicCount> doc_topics;

  for (size_t d = 0; d < c.num_docs(); ++d) {
    const auto tokens = c.DocTokens(d);
    if (tokens.empty()) continue;
    const uint64_t base = c.DocBegin(d);

    // Per-document bucket r and coefficient cache, built in O(K) and then
    // maintained incrementally (amortized O(1) per token).
    double r_mass = 0;
    doc_topics.clear();
    for (uint32_t k = 0; k < k_topics; ++k) {
      const double den = static_cast<double>(s.nk[k]) + beta_v;
      coef_[k] = alpha / den;
      const int32_t cdk = s.nd(d, k);
      if (cdk != 0) {
        coef_[k] = (cdk + alpha) / den;
        r_mass += cdk * beta / den;
        doc_topics.push_back({static_cast<uint16_t>(k), cdk});
      }
    }
    cost.StreamRead(k_topics * (4 + 8));
    cost.Flops(4ull * k_topics);

    auto update_topic = [&](uint16_t k, int delta) {
      // Adjusts nk-dependent masses and the coefficient for one topic after
      // its counts changed by delta (delta = ±1 applied already to counts).
      (void)delta;
      const double den = static_cast<double>(s.nk[k]) + beta_v;
      const int32_t cdk = s.nd(d, k);
      s_mass += alpha * beta / den;
      r_mass += cdk * beta / den;
      coef_[k] = (cdk + alpha) / den;
    };
    auto remove_topic_masses = [&](uint16_t k) {
      const double den = static_cast<double>(s.nk[k]) + beta_v;
      const int32_t cdk = s.nd(d, k);
      s_mass -= alpha * beta / den;
      r_mass -= cdk * beta / den;
    };
    auto dec_doc_list = [&](uint16_t k) {
      for (size_t i = 0; i < doc_topics.size(); ++i) {
        if (doc_topics[i].topic == k) {
          if (--doc_topics[i].count == 0) {
            doc_topics[i] = doc_topics.back();
            doc_topics.pop_back();
          }
          return;
        }
      }
      CULDA_CHECK_MSG(false, "doc topic list missing topic");
    };
    auto inc_doc_list = [&](uint16_t k) {
      for (auto& e : doc_topics) {
        if (e.topic == k) {
          ++e.count;
          return;
        }
      }
      doc_topics.push_back({k, 1});
    };

    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint32_t w = tokens[i];
      const uint64_t t = base + i;
      const uint16_t old_k = s.z[t];

      // --- Decrement, keeping s/r/coef in sync.
      remove_topic_masses(old_k);
      --s.nd(d, old_k);
      --s.nw(old_k, w);
      --s.nk[old_k];
      DecWord(w, old_k);
      dec_doc_list(old_k);
      update_topic(old_k, -1);
      cost.RandomRead(8);
      cost.RandomWrite(12);
      cost.Flops(12);

      // --- q bucket over the word's non-zero topics.
      const auto& wlist = word_topics_[w];
      double q_mass = 0;
      for (const TopicCount& e : wlist) {
        q_mass += coef_[e.topic] * e.count;
      }
      cost.StreamRead(wlist.size() * 6);          // contiguous list
      cost.RandomReads(wlist.size(), 8);          // coef lookups
      cost.Flops(2 * wlist.size());

      PhiloxStream rng(cfg_.seed,
                       (static_cast<uint64_t>(iteration_) << 40) ^ t);
      double u = rng.NextDouble() * (s_mass + r_mass + q_mass);
      uint16_t new_k = std::numeric_limits<uint16_t>::max();

      if (u < q_mass) {
        // Topic-word bucket: walk the word list.
        for (const TopicCount& e : wlist) {
          u -= coef_[e.topic] * e.count;
          if (u <= 0) {
            new_k = e.topic;
            break;
          }
        }
        if (new_k == std::numeric_limits<uint16_t>::max()) {
          new_k = wlist.back().topic;  // float round-off guard
        }
        cost.Flops(2 * wlist.size());
      } else if (u < q_mass + r_mass) {
        // Document bucket: walk the doc list.
        u -= q_mass;
        for (const TopicCount& e : doc_topics) {
          u -= e.count * beta / (static_cast<double>(s.nk[e.topic]) + beta_v);
          if (u <= 0) {
            new_k = e.topic;
            break;
          }
        }
        if (new_k == std::numeric_limits<uint16_t>::max()) {
          new_k = doc_topics.back().topic;
        }
        cost.Flops(3 * doc_topics.size());
      } else {
        // Smoothing bucket: rare (mass αβΣ1/den), full scan.
        u -= q_mass + r_mass;
        new_k = static_cast<uint16_t>(k_topics - 1);
        for (uint32_t k = 0; k < k_topics; ++k) {
          u -= alpha * beta / (static_cast<double>(s.nk[k]) + beta_v);
          if (u <= 0) {
            new_k = static_cast<uint16_t>(k);
            break;
          }
        }
        cost.StreamRead(k_topics * 8);
        cost.Flops(3ull * k_topics);
      }

      // --- Increment.
      remove_topic_masses(new_k);
      s.z[t] = new_k;
      ++s.nd(d, new_k);
      ++s.nw(new_k, w);
      ++s.nk[new_k];
      IncWord(w, new_k);
      inc_doc_list(new_k);
      update_topic(new_k, +1);
      cost.RandomWrite(14);
      cost.Flops(12);
    }

    // Remove this document's contribution to coef (next doc rebuilds), and
    // r resets naturally. Nothing to do — coef is rebuilt per doc.
  }

  return FinishStep(cost.Seconds(), wall.Seconds());
}

void SparseLdaCgs::ValidateStructures() const {
  for (uint32_t v = 0; v < state_.corpus->vocab_size(); ++v) {
    int64_t list_sum = 0;
    for (const TopicCount& e : word_topics_[v]) {
      CULDA_CHECK(e.count > 0);
      CULDA_CHECK(state_.nw(e.topic, v) == e.count);
      list_sum += e.count;
    }
    int64_t dense_sum = 0;
    for (uint32_t k = 0; k < state_.num_topics; ++k) {
      dense_sum += state_.nw(k, v);
    }
    CULDA_CHECK_MSG(list_sum == dense_sum,
                    "word " << v << " topic list out of sync");
  }
}

}  // namespace culda::baselines
