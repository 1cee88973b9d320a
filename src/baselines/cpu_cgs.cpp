#include "baselines/cpu_cgs.hpp"

#include "util/philox.hpp"
#include "util/prefix_sum.hpp"
#include "util/stopwatch.hpp"

namespace culda::baselines {

CpuCgs::CpuCgs(const corpus::Corpus& corpus, const core::CuldaConfig& cfg)
    : CpuStateSolver(corpus, cfg) {
  core::RequireSymmetricAlpha(cfg_, name());
  cdf_.resize(cfg_.num_topics);
}

core::IterationStats CpuCgs::Step() {
  Stopwatch wall;
  CpuLdaState& s = state_;
  const corpus::Corpus& c = *s.corpus;
  const uint32_t k_topics = s.num_topics;
  const double beta_v = s.beta * c.vocab_size();
  CpuCostTracker cost;
  ++iteration_;

  for (size_t d = 0; d < c.num_docs(); ++d) {
    const auto tokens = c.DocTokens(d);
    const uint64_t base = c.DocBegin(d);
    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint32_t w = tokens[i];
      const uint64_t t = base + i;
      const uint16_t old_k = s.z[t];

      // Collapse out the current token.
      --s.nd(d, old_k);
      --s.nw(old_k, w);
      --s.nk[old_k];

      // Dense conditional over all K topics.
      double total = 0;
      for (uint32_t k = 0; k < k_topics; ++k) {
        const double p = (s.nd(d, k) + s.alpha) * (s.nw(k, w) + s.beta) /
                         (static_cast<double>(s.nk[k]) + beta_v);
        total += p;
        cdf_[k] = total;
      }
      // nd row and nk are streamed (doc-major reuse / small hot array); the
      // nw column is a strided walk — every element is its own cache line.
      cost.StreamRead(k_topics * 4 * 2);
      cost.RandomReads(k_topics, 4);
      cost.Flops(4ull * k_topics);

      PhiloxStream rng(cfg_.seed,
                       (static_cast<uint64_t>(iteration_) << 40) ^ t);
      const double u = rng.NextDouble() * total;
      const uint16_t new_k = static_cast<uint16_t>(UpperBoundSearch(
          std::span<const double>(cdf_.data(), k_topics), u));
      cost.Flops(32);  // binary search + draw

      s.z[t] = new_k;
      ++s.nd(d, new_k);
      ++s.nw(new_k, w);
      ++s.nk[new_k];
      cost.RandomWrite(4 * 3 + 2);
    }
  }

  return FinishStep(cost.Seconds(), wall.Seconds());
}

}  // namespace culda::baselines
