// Topic discovery on a news-shaped corpus (the paper's NYTimes workload).
//
// Generates an NYTimes-profile corpus with known ground-truth topics, trains
// CuLDA_CGS, then inspects the learned model the way a downstream user
// would: top words per topic, topic sizes, per-document topic mixtures, and
// a purity check against the generative structure (documents generated
// mostly from one topic should be assigned mostly to one learned topic).
//
//   ./news_topics [--scale=0.002] [--topics=K] [--iters=N] [--top=10]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/cli.hpp"

using namespace culda;

namespace {

/// Top-N columns of one φ row (word ids by descending count).
std::vector<std::pair<uint32_t, uint32_t>> TopWords(
    const core::GatheredModel& model, uint32_t k, size_t top_n) {
  std::vector<std::pair<uint32_t, uint32_t>> words;  // (count, word)
  for (uint32_t v = 0; v < model.vocab_size; ++v) {
    const uint16_t c = model.phi(k, v);
    if (c > 0) words.emplace_back(c, v);
  }
  std::partial_sort(words.begin(),
                    words.begin() + std::min(top_n, words.size()),
                    words.end(), std::greater<>());
  words.resize(std::min(top_n, words.size()));
  return words;
}

/// Fraction of a document's tokens that land in its single largest topic.
double DocConcentration(const core::GatheredModel& model, size_t d) {
  int32_t top = 0;
  int64_t total = 0;
  for (const int32_t c : model.theta.RowValues(d)) {
    top = std::max(top, c);
    total += c;
  }
  return total == 0 ? 0.0 : static_cast<double>(top) / total;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);

  corpus::SyntheticProfile profile =
      corpus::NyTimesProfile(flags.GetDouble("scale", 0.002));
  profile.doc_topic_alpha = 0.03;  // peaky documents → measurable purity
  const corpus::Corpus corpus = corpus::GenerateCorpus(profile);
  std::printf("%s\n", corpus.Summary(profile.name).c_str());

  core::CuldaConfig cfg;
  cfg.num_topics = static_cast<uint32_t>(flags.GetInt("topics", 128));
  core::TrainerOptions opts;
  opts.gpus = {gpusim::V100Volta()};
  core::CuldaTrainer trainer(corpus, cfg, opts);

  const int iters = static_cast<int>(flags.GetInt("iters", 30));
  const double ll0 = trainer.LogLikelihoodPerToken();
  trainer.Train(iters);
  const double ll1 = trainer.LogLikelihoodPerToken();
  std::printf("trained %d iterations: ll/token %.4f -> %.4f\n", iters, ll0,
              ll1);

  const core::GatheredModel model = trainer.Gather();
  model.Validate(corpus);

  // Largest topics and their top words ("w123" = synthetic word 123; with a
  // real corpus these would be vocabulary strings).
  std::vector<std::pair<int64_t, uint32_t>> sizes;
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    sizes.emplace_back(model.nk[k], k);
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const size_t top_n = static_cast<size_t>(flags.GetInt("top", 8));
  std::printf("\nlargest topics:\n");
  for (size_t i = 0; i < 5 && i < sizes.size(); ++i) {
    const uint32_t k = sizes[i].second;
    std::printf("  topic %3u (%6lld tokens): ", k,
                static_cast<long long>(sizes[i].first));
    for (const auto& [count, word] : TopWords(model, k, top_n)) {
      std::printf("w%u(%u) ", word, count);
    }
    std::printf("\n");
  }

  // Purity: documents were generated with a peaky Dirichlet, so the learned
  // mixtures should concentrate as training progresses.
  double avg_conc = 0;
  for (size_t d = 0; d < model.theta.rows(); ++d) {
    avg_conc += DocConcentration(model, d);
  }
  avg_conc /= static_cast<double>(model.theta.rows());
  std::printf("\navg fraction of a document in its top topic: %.3f\n",
              avg_conc);
  std::printf("avg topics per document: %.1f (document length avg %.0f)\n",
              static_cast<double>(model.theta.nnz()) / model.theta.rows(),
              corpus.AvgDocLength());
  return 0;
}
