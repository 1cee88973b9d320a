// Tests for topic inspection utilities (top words, mixtures, coherence).
#include <gtest/gtest.h>

#include "core/topics.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"

namespace culda::core {
namespace {

/// A tiny hand-built model: topic 0 = {w0-heavy, w1}, topic 1 = {w2}.
GatheredModel TinyModel() {
  GatheredModel m;
  m.num_topics = 2;
  m.vocab_size = 3;
  m.num_docs = 2;
  m.theta = ThetaMatrix(2, 2);
  ThetaMatrix::RowBuilder b(&m.theta);
  {
    const uint16_t i0[] = {0, 1};
    const int32_t v0[] = {3, 1};
    b.AppendRow(0, i0, v0);
  }
  {
    const uint16_t i1[] = {1};
    const int32_t v1[] = {2};
    b.AppendRow(1, i1, v1);
  }
  b.Finish();
  m.phi = WordMajorPhi(2, 3);
  m.phi(0, 0) = 5;
  m.phi(0, 1) = 2;
  m.phi(1, 2) = 4;
  m.nk = {7, 4};
  return m;
}

CuldaConfig TinyConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 2;
  cfg.alpha = 0.5;
  cfg.beta = 0.1;
  return cfg;
}

TEST(TopWords, OrderedByCount) {
  const auto m = TinyModel();
  const auto top = TopWords(m, TinyConfig(), 0, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].word, 0u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[1].word, 1u);
}

TEST(TopWords, ProbabilityIsSmoothed) {
  const auto m = TinyModel();
  const auto top = TopWords(m, TinyConfig(), 0, 1);
  // (5 + 0.1) / (7 + 0.1*3)
  EXPECT_NEAR(top[0].probability, 5.1 / 7.3, 1e-12);
}

TEST(TopWords, TruncatesToN) {
  const auto m = TinyModel();
  EXPECT_EQ(TopWords(m, TinyConfig(), 0, 1).size(), 1u);
}

TEST(TopWords, EmptyTopic) {
  auto m = TinyModel();
  m.phi(1, 2) = 0;
  m.nk[1] = 0;
  EXPECT_TRUE(TopWords(m, TinyConfig(), 1, 5).empty());
}

TEST(TopicsBySize, SortedDescending) {
  const auto sizes = TopicsBySize(TinyModel());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].first, 0u);
  EXPECT_EQ(sizes[0].second, 7);
  EXPECT_EQ(sizes[1].second, 4);
}

TEST(DocumentMixture, SmoothedProportions) {
  const auto mix = DocumentMixture(TinyModel(), TinyConfig(), 0);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].topic, 0u);
  // (3 + 0.5) / (4 + 2*0.5)
  EXPECT_NEAR(mix[0].proportion, 3.5 / 5.0, 1e-12);
  EXPECT_NEAR(mix[1].proportion, 1.5 / 5.0, 1e-12);
}

TEST(Coherence, PerfectCooccurrenceBeatsNone) {
  // Reference corpus A: top words of topic 0 (w0, w1) always co-occur.
  const corpus::Corpus together(3, {0, 2, 4}, {0, 1, 0, 1});
  // Reference corpus B: they never co-occur.
  const corpus::Corpus apart(3, {0, 2, 4}, {0, 0, 1, 1});
  const auto m = TinyModel();
  const auto cfg = TinyConfig();
  EXPECT_GT(UMassCoherence(m, cfg, together, 0, 2),
            UMassCoherence(m, cfg, apart, 0, 2));
}

TEST(Coherence, SingleWordTopicIsZero) {
  const corpus::Corpus ref(3, {0, 1}, {2});
  EXPECT_EQ(UMassCoherence(TinyModel(), TinyConfig(), ref, 1, 5), 0.0);
}

TEST(Coherence, TrainedTopicsBeatRandomWordBags) {
  // Trained topics group words that co-occur; topics made of uniformly
  // random vocabulary words should score far worse. (Comparing against the
  // random *init* instead would hit the classic UMass artifact: under a
  // uniform assignment every topic's top words are the corpus's Zipf head,
  // which co-occurs everywhere and scores deceptively well.)
  corpus::SyntheticProfile p;
  p.num_docs = 400;
  p.vocab_size = 400;
  p.avg_doc_length = 40;
  p.num_topics = 20;
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 20;
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(15);
  const auto trained = trainer.Gather();
  const double trained_coh = AverageCoherence(trained, cfg, c, 8);

  // Scramble: same count mass per topic, assigned to random words.
  GatheredModel random = trained;
  random.phi.Fill(0);
  PhiloxStream rng(99, 0);
  for (uint32_t k = 0; k < random.num_topics; ++k) {
    int64_t remaining = trained.nk[k];
    while (remaining > 0) {
      const uint32_t v = rng.NextBelow(random.vocab_size);
      const int64_t add = std::min<int64_t>(remaining, 50);
      random.phi(k, v) = static_cast<uint16_t>(
          std::min<int64_t>(random.phi(k, v) + add, 0xFFFF));
      remaining -= add;
    }
  }
  const double random_coh = AverageCoherence(random, cfg, c, 8);
  EXPECT_GT(trained_coh, random_coh);
}

TEST(Coherence, AverageCoversOnlyPopulatedTopics) {
  auto m = TinyModel();
  const corpus::Corpus ref(3, {0, 2, 4}, {0, 1, 0, 2});
  // Should not throw with an empty topic present.
  m.phi(1, 2) = 0;
  m.nk[1] = 0;
  EXPECT_NO_THROW(AverageCoherence(m, TinyConfig(), ref, 2));
}

}  // namespace
}  // namespace culda::core
