// Tests for held-out inference (fold-in Gibbs) and document-completion
// perplexity.
#include <gtest/gtest.h>

#include <cmath>

#include "core/inference.hpp"
#include "core/trainer.hpp"
#include "corpus/split.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

/// A model with two cleanly separated topics: topic 0 owns words [0, V/2),
/// topic 1 owns [V/2, V).
GatheredModel SeparatedModel(uint32_t vocab = 40, uint16_t per_word = 100) {
  GatheredModel m;
  m.num_topics = 2;
  m.vocab_size = vocab;
  m.num_docs = 1;
  m.theta = ThetaMatrix(1, 2);
  ThetaMatrix::RowBuilder b(&m.theta);
  const uint16_t idx[] = {0, 1};
  const int32_t val[] = {1, 1};
  b.AppendRow(0, idx, val);
  b.Finish();
  m.phi = WordMajorPhi(2, vocab);
  m.nk = {0, 0};
  for (uint32_t v = 0; v < vocab; ++v) {
    const uint32_t k = v < vocab / 2 ? 0 : 1;
    m.phi(k, v) = per_word;
    m.nk[k] += per_word;
  }
  return m;
}

CuldaConfig TwoTopicConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 2;
  cfg.alpha = 0.1;
  cfg.beta = 0.01;
  return cfg;
}

TEST(Inference, RecoversDominantTopic) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  // A document made entirely of topic-0 words.
  std::vector<uint32_t> doc{0, 3, 7, 11, 15, 2, 5, 9};
  const auto result = engine.InferDocument(doc);
  ASSERT_FALSE(result.mixture.empty());
  EXPECT_EQ(result.mixture[0].topic, 0u);
  EXPECT_GT(result.mixture[0].proportion, 0.9);
}

TEST(Inference, MixedDocumentSplits) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  std::vector<uint32_t> doc{0, 1, 2, 3, 20, 21, 22, 23};
  const auto result = engine.InferDocument(doc, 30);
  ASSERT_EQ(result.mixture.size(), 2u);
  EXPECT_NEAR(result.mixture[0].proportion, 0.5, 0.2);
}

TEST(Inference, DeterministicInSeed) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  std::vector<uint32_t> doc{0, 25, 3, 30, 7};
  const auto a = engine.InferDocument(doc, 10, 5);
  const auto b = engine.InferDocument(doc, 10, 5);
  EXPECT_EQ(a.topic_counts, b.topic_counts);
}

TEST(Inference, CountsSumToTokens) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  std::vector<uint32_t> doc{1, 2, 3, 21, 22};
  const auto result = engine.InferDocument(doc);
  int64_t sum = 0;
  for (const int32_t c : result.topic_counts) sum += c;
  EXPECT_EQ(sum, 5);
  EXPECT_EQ(result.tokens, 5u);
}

TEST(Inference, EmptyDocument) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  const auto result = engine.InferDocument({});
  EXPECT_TRUE(result.mixture.empty());
  EXPECT_EQ(result.tokens, 0u);
}

TEST(Inference, OutOfVocabularyRejected) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  std::vector<uint32_t> doc{1000};
  EXPECT_THROW(engine.InferDocument(doc), Error);
}

TEST(Inference, ConfigMismatchRejected) {
  const auto model = SeparatedModel();
  CuldaConfig cfg;
  cfg.num_topics = 8;  // model has 2
  EXPECT_THROW(InferenceEngine(model, cfg), Error);
}

TEST(Inference, WordGivenTopicNormalizes) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  for (uint32_t k = 0; k < 2; ++k) {
    double sum = 0;
    for (uint32_t v = 0; v < model.vocab_size; ++v) {
      sum += engine.WordGivenTopic(v, k);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Perplexity, TrainedModelBeatsUntrained) {
  // Train/held-out split of ONE corpus (same generative topics): the last
  // 60 documents are held out, the rest train. The profile uses separable
  // topics (low word-skew, peaky topic–word distributions); with the
  // default heavy Zipf skew, the unigram distribution — which the *random*
  // init already matches — is nearly unbeatable at this scale, and the test
  // would measure the corpus, not the model.
  corpus::SyntheticProfile p;
  p.num_docs = 560;
  p.vocab_size = 400;
  p.avg_doc_length = 100;
  p.num_topics = 20;
  p.doc_topic_alpha = 0.05;
  p.zipf_exponent = 0.4;
  p.topic_word_beta = 0.008;
  const auto full = corpus::GenerateCorpus(p);
  const auto train_corpus = corpus::SliceDocuments(full, 0, 500);
  const auto heldout = corpus::SliceDocuments(full, 500, 560);

  CuldaConfig cfg;
  cfg.num_topics = 20;
  cfg.alpha = 0.1;
  CuldaTrainer trainer(train_corpus, cfg, {});
  // The engine keeps a pointer into the gathered model, so keep each model
  // alive past its perplexity call.
  const auto model_before = trainer.Gather();
  const InferenceEngine before(model_before, cfg);
  const double ppl_before =
      before.DocumentCompletionPerplexity(heldout, 15);
  trainer.Train(20);
  const auto model_after = trainer.Gather();
  const InferenceEngine after(model_after, cfg);
  const double ppl_after = after.DocumentCompletionPerplexity(heldout, 15);

  EXPECT_LT(ppl_after, 0.6 * ppl_before);
  // Perplexity is bounded by vocabulary size for any non-degenerate model.
  EXPECT_LT(ppl_after, 400);
  EXPECT_GT(ppl_after, 1.0);
}

TEST(Perplexity, EmptyHeldoutRejected) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  const corpus::Corpus empty(40, {0, 1}, {0});  // one 1-token doc: unscorable
  EXPECT_THROW(engine.DocumentCompletionPerplexity(empty), Error);
}

// ------------------------------------------- sampling contract & sparsity

/// Pins the engine's RNG contract (inference.hpp header comment): one
/// PhiloxStream(seed, 0) per document, len(doc) NextBelow(K) init draws,
/// then one NextDouble per token per sweep. If the number or order of draws
/// ever changes, these sequences move and this test fails.
TEST(Inference, PinnedSamplingSequence) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  const std::vector<uint32_t> doc{0, 25, 3, 30, 7, 21, 2};

  // iterations=0 exposes the raw init: token i gets the i-th NextBelow(K)
  // draw of the document's stream.
  const auto init = engine.InferDocument(doc, 0, 11);
  PhiloxStream rng(11, 0);
  for (size_t i = 0; i < doc.size(); ++i) {
    EXPECT_EQ(init.assignments[i],
              static_cast<uint16_t>(rng.NextBelow(2)));
  }

  // Golden sequences after 1 and 5 sweeps at seed 11.
  const std::vector<uint16_t> after_one{0, 1, 0, 1, 0, 1, 0};
  const std::vector<uint16_t> after_five{0, 1, 0, 1, 0, 1, 0};
  EXPECT_EQ(engine.InferDocument(doc, 1, 11).assignments, after_one);
  EXPECT_EQ(engine.InferDocument(doc, 5, 11).assignments, after_five);
}

/// A realistically messy model for sparse-vs-dense and batching tests.
GatheredModel TrainedModel(CuldaConfig& cfg) {
  corpus::SyntheticProfile p;
  p.num_docs = 200;
  p.vocab_size = 300;
  p.avg_doc_length = 30;
  const auto c = corpus::GenerateCorpus(p);
  cfg.num_topics = 16;
  cfg.alpha = 0.3;
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(5);
  return trainer.Gather();
}

std::vector<std::vector<uint32_t>> RandomDocs(size_t n, uint32_t vocab,
                                              uint64_t seed) {
  PhiloxStream rng(seed, 0);
  std::vector<std::vector<uint32_t>> docs(n);
  for (auto& doc : docs) {
    const uint32_t len = 5 + rng.NextBelow(40);
    for (uint32_t t = 0; t < len; ++t) doc.push_back(rng.NextBelow(vocab));
  }
  return docs;
}

TEST(Inference, SparseAndDenseAgreeExactly) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  InferenceOptions dense_opts;
  dense_opts.sampler = InferSampler::kDenseReference;
  const InferenceEngine sparse(model, cfg);
  const InferenceEngine dense(model, cfg, dense_opts);

  for (const auto& doc : RandomDocs(10, model.vocab_size, 3)) {
    const auto a = sparse.InferDocument(doc, 15, 21);
    const auto b = dense.InferDocument(doc, 15, 21);
    // Exact topic assignments, not just close mixtures: both modes follow
    // the same sampling specification term for term.
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_EQ(a.topic_counts, b.topic_counts);
  }
}

TEST(Inference, BatchMatchesSequentialAtAnyWorkerCount) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  const auto docs = RandomDocs(17, model.vocab_size, 4);
  std::vector<uint64_t> seeds(docs.size());
  for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = 100 + i * 3;

  const InferenceEngine sequential(model, cfg);
  std::vector<InferenceResult> expect;
  for (size_t i = 0; i < docs.size(); ++i) {
    expect.push_back(sequential.InferDocument(docs[i], 12, seeds[i]));
  }

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    InferenceOptions opts;
    opts.pool = &pool;
    const InferenceEngine batched(model, cfg, opts);
    const auto results = batched.InferBatch(docs, 12, seeds);
    ASSERT_EQ(results.size(), docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(results[i].assignments, expect[i].assignments)
          << "doc " << i << " at " << workers << " workers";
      EXPECT_EQ(results[i].topic_counts, expect[i].topic_counts);
    }
  }
}

TEST(Inference, EmptyDocumentInsideBatch) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  const InferenceEngine engine(model, cfg);
  std::vector<std::vector<uint32_t>> docs{{1, 2, 3}, {}, {4, 5}};
  const auto results = engine.InferBatch(docs, 10, 7);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].tokens, 0u);
  EXPECT_TRUE(results[1].mixture.empty());
  EXPECT_EQ(results[0].tokens, 3u);
  EXPECT_EQ(results[2].tokens, 2u);
}

TEST(Inference, BatchSeedMismatchRejected) {
  const auto model = SeparatedModel();
  const InferenceEngine engine(model, TwoTopicConfig());
  std::vector<std::vector<uint32_t>> docs{{1}, {2}};
  const std::vector<uint64_t> one_seed{7};
  EXPECT_THROW(engine.InferBatch(docs, 10, one_seed), Error);
}

TEST(Perplexity, SparseAndDenseBitIdentical) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  corpus::SyntheticProfile p;
  p.num_docs = 40;
  p.vocab_size = 300;
  p.avg_doc_length = 24;
  const auto heldout = corpus::GenerateCorpus(p);

  InferenceOptions dense_opts;
  dense_opts.sampler = InferSampler::kDenseReference;
  const InferenceEngine sparse(model, cfg);
  const InferenceEngine dense(model, cfg, dense_opts);
  // Exact equality, not EXPECT_NEAR: the scoring sums are built from the
  // same double terms in the same order in both modes.
  EXPECT_EQ(sparse.DocumentCompletionPerplexity(heldout, 10),
            dense.DocumentCompletionPerplexity(heldout, 10));
}

TEST(Perplexity, ParallelMatchesSequentialBitwise) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  corpus::SyntheticProfile p;
  p.num_docs = 40;
  p.vocab_size = 300;
  p.avg_doc_length = 24;
  const auto heldout = corpus::GenerateCorpus(p);

  const InferenceEngine sequential(model, cfg);
  const double expect = sequential.DocumentCompletionPerplexity(heldout, 10);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    InferenceOptions opts;
    opts.pool = &pool;
    const InferenceEngine parallel(model, cfg, opts);
    EXPECT_EQ(parallel.DocumentCompletionPerplexity(heldout, 10), expect)
        << workers << " workers";
  }
}

TEST(Perplexity, SkipsUnscorableDocuments) {
  CuldaConfig cfg;
  const auto model = TrainedModel(cfg);
  const InferenceEngine engine(model, cfg);
  // Doc 0 has one token (unscorable, skipped), doc 1 has four.
  const corpus::Corpus heldout(300, {0, 1, 5}, {3, 10, 11, 12, 13});
  const double ppl = engine.DocumentCompletionPerplexity(heldout, 10);
  EXPECT_GT(ppl, 1.0);
  EXPECT_TRUE(std::isfinite(ppl));
}

}  // namespace
}  // namespace culda::core
