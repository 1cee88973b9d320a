// Mutation tests for the invariant checkers (docs/validation.md): corrupt
// exactly one entry of φ / n_k / θ / z / the work list and assert the named
// invariant reports it with a location, plus the 16-bit overflow guards and
// the proof that validation is observation-only (bit-identity on/off).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>

#include "core/trainer.hpp"
#include "core/word_partition.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/word_first.hpp"
#include "dist/cluster.hpp"
#include "util/philox.hpp"
#include "validate/invariants.hpp"

namespace culda {
namespace {

corpus::Corpus SmallCorpus(uint64_t docs = 120, uint32_t vocab = 200,
                           double len = 30) {
  corpus::SyntheticProfile p;
  p.num_docs = docs;
  p.vocab_size = vocab;
  p.avg_doc_length = len;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig SmallConfig(uint32_t k = 16) {
  core::CuldaConfig cfg;
  cfg.num_topics = k;
  cfg.max_tokens_per_block = 256;
  return cfg;
}

struct BuiltState {
  std::vector<core::ChunkState> chunks;
  core::PhiReplica model;
};

/// A consistent trainer-shaped state built outside the trainer (its members
/// are private): the same layout/z-init/θ-compaction/φ-histogram recipe, so
/// a clean build passes every checker and any single corruption is the only
/// inconsistency.
BuiltState BuildState(const corpus::Corpus& c, const core::CuldaConfig& cfg,
                      uint32_t num_chunks) {
  BuiltState s;
  for (const auto& spec : corpus::PartitionByTokens(c, num_chunks)) {
    core::ChunkState chunk;
    chunk.layout = corpus::BuildWordFirstChunk(c, spec);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg.max_tokens_per_block);
    chunk.z.resize(chunk.layout.num_tokens());
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      PhiloxStream rng(cfg.seed, chunk.layout.token_global[t]);
      chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(cfg.num_topics));
    }
    chunk.theta = core::ThetaMatrix(chunk.layout.num_docs(), cfg.num_topics);
    chunk.theta.AssignFromDense([&](size_t d, std::span<int32_t> row) {
      for (uint64_t i = chunk.layout.doc_map_offsets[d];
           i < chunk.layout.doc_map_offsets[d + 1]; ++i) {
        row[chunk.z[chunk.layout.doc_map[i]]] += 1;
      }
    });
    s.chunks.push_back(std::move(chunk));
  }
  s.model = core::PhiReplica(cfg.num_topics, c.vocab_size());
  for (const auto& chunk : s.chunks) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      s.model.phi(chunk.z[t], chunk.layout.token_word[t]) += 1;
    }
  }
  s.model.RecomputeTotals();
  return s;
}

/// Runs `fn`, demands it throws ValidationError naming `invariant`, and that
/// the message carries `location` (the "where", not just the "what").
template <typename Fn>
void ExpectViolation(const Fn& fn, const std::string& invariant,
                     const std::string& location) {
  try {
    fn();
    FAIL() << "expected invariant '" << invariant << "' to be reported";
  } catch (const validate::ValidationError& e) {
    EXPECT_EQ(e.invariant(), invariant) << "full message: " << e.what();
    EXPECT_NE(std::string(e.what()).find(location), std::string::npos)
        << "message '" << e.what() << "' does not locate '" << location
        << "'";
  }
}

TEST(Validate, CleanStatePassesEveryChecker) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  const auto s = BuildState(c, cfg, 3);
  EXPECT_NO_THROW(
      validate::ValidateModelState(c, cfg, s.chunks, s.model));
}

TEST(Validate, MutatedZIsCaughtByZTopicRange) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 2);
  s.chunks[0].z[5] = static_cast<uint16_t>(cfg.num_topics);
  ExpectViolation(
      [&] { validate::CheckAssignmentsInRange(cfg, s.chunks[0], "chunk 0"); },
      "z-topic-range", "z[5]");
  // The full entry point reports it with the chunk context attached.
  ExpectViolation(
      [&] { validate::ValidateModelState(c, cfg, s.chunks, s.model); },
      "z-topic-range", "chunk 0");
}

TEST(Validate, MutatedThetaValueIsCaughtByThetaMatchesZ) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 2);
  s.chunks[1].theta.mutable_values()[0] += 1;
  ExpectViolation(
      [&] { validate::CheckThetaMatchesZ(cfg, s.chunks[1], "chunk 1"); },
      "theta-matches-z", "document 0");
  ExpectViolation(
      [&] { validate::ValidateModelState(c, cfg, s.chunks, s.model); },
      "theta-matches-z", "chunk 1");
}

TEST(Validate, MisshapenThetaIsCaughtByThetaStructure) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 1);
  s.chunks[0].theta =
      core::ThetaMatrix(s.chunks[0].layout.num_docs() + 1, cfg.num_topics);
  ExpectViolation(
      [&] { validate::CheckThetaMatchesZ(cfg, s.chunks[0], "chunk 0"); },
      "theta-structure", "documents");
}

TEST(Validate, MutatedNkIsCaughtByNkMatchesPhi) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 1);
  s.model.nk[3] += 1;
  ExpectViolation([&] { validate::CheckNkMatchesPhi(s.model); },
                  "nk-matches-phi", "n_k[3]");
  ExpectViolation(
      [&] { validate::ValidateModelState(c, cfg, s.chunks, s.model); },
      "nk-matches-phi", "n_k[3]");
}

TEST(Validate, MutatedPhiCellIsCaughtByPhiTotalTokens) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 1);
  s.model.phi(2, 7) += 1;
  ExpectViolation(
      [&] {
        validate::CheckPhiTotalTokens(s.model, c.num_tokens());
      },
      "phi-total-tokens", "ΣΣ φ");
}

TEST(Validate, MovedPhiCountIsCaughtByPhiMatchesZ) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 2);
  // Move one count within a φ row: n_k, ΣΣ φ, and every θ row stay
  // consistent, so only the z cross-check can see it — the exact signature
  // of a mis-applied delayed update.
  auto& phi = s.model.phi;
  uint32_t v_from = 0;
  while (phi(0, v_from) == 0) ++v_from;
  const uint32_t v_to = v_from == 0 ? 1 : 0;
  phi(0, v_from) -= 1;
  phi(0, v_to) += 1;
  ExpectViolation(
      [&] { validate::ValidateModelState(c, cfg, s.chunks, s.model); },
      "phi-matches-z", "topic 0");
}

TEST(Validate, NearSaturatedPhiCellIsCaughtByMargin) {
  core::PhiReplica rep(4, 8);
  rep.phi(1, 2) = 0xFFFF - 1024;  // exactly at the default margin boundary
  rep.RecomputeTotals();
  ExpectViolation([&] { validate::CheckPhiSaturationMargin(rep, 1024); },
                  "phi-saturation-margin", "(topic 1, word 2)");
  // One below the boundary passes; margin 0 disables the check entirely.
  rep.phi(1, 2) = 0xFFFF - 1025;
  rep.RecomputeTotals();
  EXPECT_NO_THROW(validate::CheckPhiSaturationMargin(rep, 1024));
  rep.phi(1, 2) = 0xFFFF;
  rep.RecomputeTotals();
  EXPECT_NO_THROW(validate::CheckPhiSaturationMargin(rep, 0));
}

TEST(Validate, CorruptedWorkListIsCaughtByChunkLayout) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 2);
  s.chunks[0].work[0].token_end -= 1;
  ExpectViolation(
      [&] { validate::CheckChunkLayout(c, s.chunks[0], "chunk 0"); },
      "chunk-layout", "block");
}

TEST(Validate, ShiftedChunkBoundaryIsCaughtByChunkCoverage) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  auto s = BuildState(c, cfg, 3);
  s.chunks[1].layout.spec.doc_begin += 1;
  ExpectViolation(
      [&] { validate::ValidateModelState(c, cfg, s.chunks, s.model); },
      "chunk-coverage", "chunk 1");
}

TEST(Validate, ServedModelCorruptionIsCaught) {
  const auto c = SmallCorpus();
  core::CuldaTrainer trainer(c, SmallConfig(), {});
  trainer.Train(2);

  auto model = trainer.Gather();
  EXPECT_NO_THROW(validate::ValidateServedModel(model));
  model.nk[0] += 1;
  ExpectViolation([&] { validate::ValidateServedModel(model); },
                  "nk-matches-phi", "served model");

  auto model2 = trainer.Gather();
  model2.theta.mutable_values()[0] = 0;
  ExpectViolation([&] { validate::ValidateServedModel(model2); },
                  "model-consistency", "non-positive");
}

TEST(Validate, TrainerStatePassesAfterTrainingAndRestore) {
  const auto c = SmallCorpus();
  const auto cfg = SmallConfig();
  core::TrainerOptions opts;
  opts.gpus.assign(2, gpusim::V100Volta());
  core::CuldaTrainer trainer(c, cfg, opts);
  EXPECT_NO_THROW(trainer.ValidateState());
  trainer.Train(3);
  EXPECT_NO_THROW(trainer.ValidateState());

  std::stringstream ckpt;
  trainer.SaveCheckpoint(ckpt);
  core::CuldaTrainer restored(c, cfg, opts);
  restored.RestoreCheckpoint(ckpt);
  EXPECT_NO_THROW(restored.ValidateState());
}

TEST(Validate, BitIdenticalWithAndWithoutValidation) {
  // Validation must be observation-only: a run with the hooks live (or, in
  // a hooks-off build, with explicit ValidateState() calls interleaved)
  // produces bit-identical assignments, φ, and θ to a run without.
  const auto c = SmallCorpus(200, 300, 40);
  const auto cfg = SmallConfig(24);

  core::TrainerOptions off_opts;
  off_opts.validate = false;
  core::CuldaTrainer off(c, cfg, off_opts);

  core::TrainerOptions on_opts;
  on_opts.validate = true;
  core::CuldaTrainer on(c, cfg, on_opts);

  for (int i = 0; i < 3; ++i) {
    off.Step();
    on.Step();
    on.ValidateState();
  }

  EXPECT_EQ(off.ExportAssignments(), on.ExportAssignments());
  const auto m_off = off.Gather();
  const auto m_on = on.Gather();
  const auto phi_off = m_off.phi.flat();
  const auto phi_on = m_on.phi.flat();
  ASSERT_EQ(phi_off.size(), phi_on.size());
  EXPECT_TRUE(std::equal(phi_off.begin(), phi_off.end(), phi_on.begin()));
  EXPECT_EQ(m_off.nk, m_on.nk);
  EXPECT_TRUE(std::equal(m_off.theta.values().begin(),
                         m_off.theta.values().end(),
                         m_on.theta.values().begin()));
}

TEST(Validate, HeavyWordCorpusFailsLoudly) {
  // One word with 70000 occurrences: its φ cell could legally reach 70000 >
  // 65535 if training concentrates it on one topic, silently wrapping the
  // 16-bit count. Every trainer must refuse the corpus up front, with the
  // same message.
  constexpr uint64_t kDocs = 100;
  constexpr uint64_t kHeavyPerDoc = 700;  // 70000 total
  std::vector<uint64_t> offsets = {0};
  std::vector<uint32_t> words;
  for (uint64_t d = 0; d < kDocs; ++d) {
    for (uint64_t i = 0; i < kHeavyPerDoc; ++i) words.push_back(0);
    words.push_back(1 + static_cast<uint32_t>(d % 2));
    offsets.push_back(words.size());
  }
  const corpus::Corpus heavy(3, std::move(offsets), std::move(words));

  const std::vector<std::pair<const char*, std::function<void()>>> trainers =
      {{"CuldaTrainer",
        [&] { core::CuldaTrainer trainer(heavy, SmallConfig(), {}); }},
       {"WordPartitionTrainer",
        [&] {
          core::WordPartitionTrainer trainer(
              heavy, SmallConfig(),
              std::vector<gpusim::DeviceSpec>(2, gpusim::V100Volta()));
        }},
       {"ClusterTrainer", [&] {
          dist::ClusterOptions opts;
          opts.mode = dist::DistMode::kSync;
          dist::ClusterTrainer trainer(heavy, SmallConfig(), opts);
        }}};
  for (const auto& [name, construct] : trainers) {
    try {
      construct();
      ADD_FAILURE() << name << " must reject the heavy-word corpus";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("word 0"), std::string::npos) << name << ": " << msg;
      EXPECT_NE(msg.find("70000"), std::string::npos) << name << ": " << msg;
      EXPECT_NE(msg.find("65535"), std::string::npos) << name << ": " << msg;
    }
  }
}

TEST(Validate, ConfigRejectsTopicCountsBeyond16Bit) {
  core::CuldaConfig cfg;
  cfg.num_topics = 0xFFFF;
  EXPECT_NO_THROW(cfg.Validate());
  cfg.num_topics = 0x10000;
  EXPECT_THROW(cfg.Validate(), Error);
  try {
    cfg.Validate();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos)
        << e.what();
  }
}

TEST(Validate, HooksCompiledMatchesBuildConfiguration) {
#ifdef CULDA_VALIDATE_ON
  EXPECT_TRUE(validate::kHooksCompiled);
#else
  EXPECT_FALSE(validate::kHooksCompiled);
#endif
  // The options default follows the build: hooks fire exactly when present.
  EXPECT_EQ(core::TrainerOptions{}.validate, validate::kHooksCompiled);
}

}  // namespace
}  // namespace culda
