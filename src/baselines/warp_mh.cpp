#include "baselines/warp_mh.hpp"

#include <algorithm>

#include "util/philox.hpp"
#include "util/stopwatch.hpp"

namespace culda::baselines {

WarpMhSampler::WarpMhSampler(const corpus::Corpus& corpus,
                             const core::CuldaConfig& cfg, uint32_t mh_cycles)
    : CpuStateSolver(corpus, cfg), mh_cycles_(mh_cycles) {
  core::RequireSymmetricAlpha(cfg_, name());
  CULDA_CHECK(mh_cycles >= 1);
  word_alias_.resize(corpus.vocab_size());
}

void WarpMhSampler::RebuildAliasTables(CpuCostTracker& cost) {
  const uint32_t k_topics = state_.num_topics;
  std::vector<float> w(k_topics);
  for (uint32_t v = 0; v < state_.corpus->vocab_size(); ++v) {
    for (uint32_t k = 0; k < k_topics; ++k) {
      w[k] = static_cast<float>(state_.nw(k, v)) +
             static_cast<float>(state_.beta);
    }
    word_alias_[v].Build(w, alias_scratch_);
  }
  // Streaming pass over nw plus table writes.
  const uint64_t cells =
      static_cast<uint64_t>(k_topics) * state_.corpus->vocab_size();
  cost.StreamRead(cells * 4);
  cost.StreamWrite(cells * 8);
  cost.Flops(4 * cells);
}

core::IterationStats WarpMhSampler::Step() {
  Stopwatch wall;
  CpuLdaState& s = state_;
  const corpus::Corpus& c = *s.corpus;
  const uint32_t k_topics = s.num_topics;
  const double alpha = s.alpha, beta = s.beta;
  const double beta_v = beta * c.vocab_size();
  const double alpha_k = alpha * k_topics;
  CpuCostTracker cost;
  ++iteration_;

  RebuildAliasTables(cost);

  // Exact conditional (with live decremented counts) used in the MH ratio.
  auto p_hat = [&](size_t d, uint32_t w, uint32_t k) {
    return (s.nd(d, k) + alpha) * (s.nw(k, w) + beta) /
           (static_cast<double>(s.nk[k]) + beta_v);
  };

  for (size_t d = 0; d < c.num_docs(); ++d) {
    const auto tokens = c.DocTokens(d);
    const uint64_t base = c.DocBegin(d);
    const double len_d = static_cast<double>(tokens.size());

    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint32_t w = tokens[i];
      const uint64_t t = base + i;
      uint16_t cur = s.z[t];

      // Collapse the token out once; the MH cycles then move `cur`.
      --s.nd(d, cur);
      --s.nw(cur, w);
      --s.nk[cur];
      cost.RandomRead(2);     // z
      cost.RandomWrite(12);   // three count decrements

      PhiloxStream rng(cfg_.seed,
                       (static_cast<uint64_t>(iteration_) << 40) ^ t);

      for (uint32_t cycle = 0; cycle < mh_cycles_; ++cycle) {
        // ---- Doc proposal: q_d(k) ∝ n_dk + α.
        {
          uint16_t prop;
          const double pick = rng.NextDouble() * (len_d + alpha_k);
          if (pick < len_d) {
            prop = s.z[base + rng.NextBelow(
                                  static_cast<uint32_t>(tokens.size()))];
            cost.RandomRead(2);
          } else {
            prop = static_cast<uint16_t>(rng.NextBelow(k_topics));
          }
          if (prop != cur) {
            // q_d cancels against the doc factor of p̂:
            // accept = (n_w,prop+β)(n_cur+βV) / ((n_w,cur+β)(n_prop+βV)).
            const double a =
                (s.nw(prop, w) + beta) *
                (static_cast<double>(s.nk[cur]) + beta_v) /
                ((s.nw(cur, w) + beta) *
                 (static_cast<double>(s.nk[prop]) + beta_v));
            ++proposals_;
            cost.RandomRead(8);
            cost.Flops(8);
            if (rng.NextDouble() < a) {
              cur = prop;
              ++accepts_;
            }
          }
        }
        // ---- Word proposal: q_w(k) ∝ ñ_kv + β (stale alias table).
        {
          const core::AliasTable& table = word_alias_[w];
          const uint16_t prop =
              table.Sample(rng.NextU32(), rng.NextFloat());
          cost.RandomRead(8);  // alias cell
          if (prop != cur) {
            const double q_cur = table.weight[cur];
            const double q_prop = table.weight[prop];
            const double a =
                p_hat(d, w, prop) * q_cur / (p_hat(d, w, cur) * q_prop);
            ++proposals_;
            cost.RandomRead(24);  // nd/nw/nk for both topics
            cost.Flops(14);
            if (rng.NextDouble() < a) {
              cur = prop;
              ++accepts_;
            }
          }
        }
      }

      s.z[t] = cur;
      ++s.nd(d, cur);
      ++s.nw(cur, w);
      ++s.nk[cur];
      cost.RandomWrite(14);
    }
  }

  return FinishStep(cost.Seconds(), wall.Seconds());
}

}  // namespace culda::baselines
