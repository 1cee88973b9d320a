// Tests for the four CuLDA kernels: functional correctness of the model
// updates, sampling determinism and validity, and traffic accounting.
#include <gtest/gtest.h>

#include <string>

#include "core/kernels.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"

namespace culda::core {
namespace {

struct Fixture {
  corpus::Corpus corpus;
  CuldaConfig cfg;
  gpusim::Device device{gpusim::TitanXMaxwell(), 0};
  ChunkState chunk;
  PhiReplica replica;

  explicit Fixture(uint32_t k_topics = 32, uint64_t docs = 120) {
    corpus::SyntheticProfile p;
    p.num_docs = docs;
    p.vocab_size = 150;
    p.avg_doc_length = 40;
    corpus = corpus::GenerateCorpus(p);

    cfg.num_topics = k_topics;
    cfg.max_tokens_per_block = 256;

    const auto spec = corpus::PartitionByTokens(corpus, 1)[0];
    chunk.layout = corpus::BuildWordFirstChunk(corpus, spec);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg.max_tokens_per_block);
    chunk.z.resize(chunk.layout.num_tokens());
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      PhiloxStream rng(cfg.seed, t);
      chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(k_topics));
    }
    chunk.theta = ThetaMatrix(chunk.layout.num_docs(), k_topics);
    replica = PhiReplica(k_topics, corpus.vocab_size());

    RunUpdatePhiKernel(device, cfg, chunk, replica);
    RunUpdateThetaKernel(device, cfg, chunk);
    RunComputeNkKernel(device, cfg, replica);
  }

  /// Reference φ built directly from (z, word) pairs.
  PhiMatrix ReferencePhi() const {
    PhiMatrix ref(cfg.num_topics, corpus.vocab_size());
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      ++ref(chunk.z[t], chunk.layout.token_word[t]);
    }
    return ref;
  }
};

// ------------------------------------------------------------ update phi --

TEST(UpdatePhi, MatchesReferenceCounts) {
  Fixture f;
  const PhiMatrix ref = f.ReferencePhi();
  for (uint32_t k = 0; k < f.cfg.num_topics; ++k) {
    for (uint32_t v = 0; v < f.corpus.vocab_size(); ++v) {
      ASSERT_EQ(f.replica.phi(k, v), ref(k, v)) << k << "," << v;
    }
  }
}

TEST(UpdatePhi, NkMatchesPhiRowSums) {
  Fixture f;
  for (uint32_t k = 0; k < f.cfg.num_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < f.corpus.vocab_size(); ++v) {
      sum += f.replica.phi(k, v);
    }
    EXPECT_EQ(f.replica.nk[k], sum);
  }
}

TEST(UpdatePhi, GrandTotalIsTokenCount) {
  Fixture f;
  int64_t grand = 0;
  for (const int32_t k : f.replica.nk) grand += k;
  EXPECT_EQ(grand, static_cast<int64_t>(f.corpus.num_tokens()));
}

TEST(UpdatePhi, BillsOneAtomicPerToken) {
  Fixture f;
  PhiReplica fresh(f.cfg.num_topics, f.corpus.vocab_size());
  const auto rec = RunUpdatePhiKernel(f.device, f.cfg, f.chunk, fresh);
  EXPECT_EQ(rec.counters.atomic_ops, f.corpus.num_tokens());
}

TEST(UpdatePhi, OverflowPastSixteenBitsThrows) {
  // Every device's adds land in one host φ, so this guard is what catches a
  // summed count wrapping past 65535.
  Fixture f;
  PhiReplica full(f.cfg.num_topics, f.corpus.vocab_size());
  full.phi(f.chunk.z[0], f.chunk.layout.token_word[0]) = 0xFFFF;
  try {
    RunUpdatePhiKernel(f.device, f.cfg, f.chunk, full);
    FAIL() << "a φ cell at 0xFFFF must not be incremented";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("phi count overflowed 16 bits"),
              std::string::npos)
        << e.what();
  }
}

TEST(ZeroPhi, ClearsCountsAndTotals) {
  Fixture f;
  RunZeroPhiKernel(f.device, f.cfg, f.replica);
  for (const uint16_t c : f.replica.phi.flat()) EXPECT_EQ(c, 0);
  for (const int32_t k : f.replica.nk) EXPECT_EQ(k, 0);
}

// ---------------------------------------------------------- update theta --

TEST(UpdateTheta, RowSumsEqualDocLengths) {
  Fixture f;
  for (uint64_t d = 0; d < f.chunk.num_docs(); ++d) {
    int64_t sum = 0;
    for (const int32_t c : f.chunk.theta.RowValues(d)) sum += c;
    EXPECT_EQ(sum, static_cast<int64_t>(f.corpus.DocLength(d)));
  }
}

TEST(UpdateTheta, MatchesPerTokenCounts) {
  Fixture f;
  for (uint64_t d = 0; d < f.chunk.num_docs(); ++d) {
    std::vector<int32_t> ref(f.cfg.num_topics, 0);
    for (uint64_t i = f.chunk.layout.doc_map_offsets[d];
         i < f.chunk.layout.doc_map_offsets[d + 1]; ++i) {
      ++ref[f.chunk.z[f.chunk.layout.doc_map[i]]];
    }
    for (uint32_t k = 0; k < f.cfg.num_topics; ++k) {
      ASSERT_EQ(f.chunk.theta.At(d, static_cast<uint16_t>(k)), ref[k]);
    }
  }
}

TEST(UpdateTheta, CsrIsStructurallyValid) {
  Fixture f;
  f.chunk.theta.Validate();
  // Indices ascend within each row (the compaction scans k in order).
  for (uint64_t d = 0; d < f.chunk.num_docs(); ++d) {
    const auto idx = f.chunk.theta.RowIndices(d);
    for (size_t i = 1; i < idx.size(); ++i) {
      EXPECT_LT(idx[i - 1], idx[i]);
    }
  }
}

TEST(UpdateTheta, ReflectsNewAssignments) {
  Fixture f;
  // Move every token to topic 3 and rebuild.
  std::fill(f.chunk.z.begin(), f.chunk.z.end(), static_cast<uint16_t>(3));
  RunUpdateThetaKernel(f.device, f.cfg, f.chunk);
  for (uint64_t d = 0; d < f.chunk.num_docs(); ++d) {
    EXPECT_EQ(f.chunk.theta.RowLength(d),
              f.corpus.DocLength(d) > 0 ? 1u : 0u);
    if (f.chunk.theta.RowLength(d) == 1) {
      EXPECT_EQ(f.chunk.theta.RowIndices(d)[0], 3);
    }
  }
}

// --------------------------------------------------------------- sampling --

TEST(Sampling, ProducesTopicsInRange) {
  Fixture f;
  RunSamplingKernel(f.device, f.cfg, f.chunk, f.replica, 1);
  for (const uint16_t z : f.chunk.z) {
    EXPECT_LT(z, f.cfg.num_topics);
  }
}

TEST(Sampling, DeterministicAcrossRuns) {
  Fixture a, b;
  RunSamplingKernel(a.device, a.cfg, a.chunk, a.replica, 1);
  RunSamplingKernel(b.device, b.cfg, b.chunk, b.replica, 1);
  EXPECT_EQ(a.chunk.z, b.chunk.z);
}

TEST(Sampling, IterationChangesDraws) {
  Fixture a, b;
  RunSamplingKernel(a.device, a.cfg, a.chunk, a.replica, 1);
  RunSamplingKernel(b.device, b.cfg, b.chunk, b.replica, 2);
  EXPECT_NE(a.chunk.z, b.chunk.z);
}

TEST(Sampling, StepCountersCoverEveryToken) {
  Fixture f;
  SamplingStepCounters steps;
  RunSamplingKernel(f.device, f.cfg, f.chunk, f.replica, 1, nullptr, &steps);
  EXPECT_EQ(steps.tokens, f.corpus.num_tokens());
  EXPECT_GT(steps.p1_branches, 0u);
  EXPECT_LT(steps.p1_branches, steps.tokens);
  EXPECT_GT(steps.compute_s.flops, 0u);
  EXPECT_GT(steps.compute_q.flops, 0u);
}

TEST(Sampling, RooflineIsMemoryBound) {
  // The measured Flops/Byte must land far below any GPU balance point —
  // the Section 3 conclusion.
  Fixture f(64);
  SamplingStepCounters steps;
  const auto rec =
      RunSamplingKernel(f.device, f.cfg, f.chunk, f.replica, 1, nullptr,
                        &steps);
  const double fpb = rec.counters.FlopsPerByte();
  EXPECT_GT(fpb, 0.02);
  EXPECT_LT(fpb, 2.0);
}

TEST(Sampling, SharedTreeReducesTraffic) {
  // A2: block-level p2-tree sharing plus p* reuse must cut DRAM traffic.
  Fixture on, off;
  off.cfg.share_p2_tree = false;
  off.cfg.reuse_pstar = false;
  const auto rec_on =
      RunSamplingKernel(on.device, on.cfg, on.chunk, on.replica, 1);
  const auto rec_off =
      RunSamplingKernel(off.device, off.cfg, off.chunk, off.replica, 1);
  EXPECT_LT(rec_on.counters.TotalOffChipBytes(),
            rec_off.counters.TotalOffChipBytes() / 2);
  // Optimizations change billing, never the sampled topics.
  EXPECT_EQ(on.chunk.z, off.chunk.z);
}

TEST(Sampling, CompressionReducesTraffic) {
  // A3: 16-bit indices/counters vs 32-bit.
  Fixture on, off;
  off.cfg.compress_indices = false;
  const auto rec_on =
      RunSamplingKernel(on.device, on.cfg, on.chunk, on.replica, 1);
  const auto rec_off =
      RunSamplingKernel(off.device, off.cfg, off.chunk, off.replica, 1);
  EXPECT_LT(rec_on.counters.TotalOffChipBytes(),
            rec_off.counters.TotalOffChipBytes());
  EXPECT_EQ(on.chunk.z, off.chunk.z);
}

TEST(Sampling, L1RoutingMovesIndexBytes) {
  Fixture on, off;
  off.cfg.l1_for_indices = false;
  const auto rec_on =
      RunSamplingKernel(on.device, on.cfg, on.chunk, on.replica, 1);
  const auto rec_off =
      RunSamplingKernel(off.device, off.cfg, off.chunk, off.replica, 1);
  EXPECT_GT(rec_on.counters.l1_read_bytes, rec_off.counters.l1_read_bytes);
  EXPECT_LT(rec_on.counters.global_read_bytes,
            rec_off.counters.global_read_bytes);
}

TEST(Sampling, EmptyChunkIsHarmless) {
  Fixture f;
  ChunkState empty;
  empty.layout.spec = corpus::ChunkSpec{0, 0, 0, 0, 0};
  empty.layout.vocab_size = f.corpus.vocab_size();
  empty.layout.word_offsets.assign(f.corpus.vocab_size() + 1, 0);
  empty.theta = ThetaMatrix(0, f.cfg.num_topics);
  const auto rec =
      RunSamplingKernel(f.device, f.cfg, empty, f.replica, 1);
  EXPECT_EQ(rec.counters.blocks, 0u);
}

TEST(Sampling, MovesTowardsGenerativeStructure) {
  // After a few sweeps on a strongly-structured corpus, sampling + updates
  // must concentrate documents on fewer topics than the random init.
  Fixture f(64, 200);
  const auto initial_nnz = f.chunk.theta.nnz();
  for (int it = 1; it <= 5; ++it) {
    RunSamplingKernel(f.device, f.cfg, f.chunk, f.replica, it);
    PhiReplica next(f.cfg.num_topics, f.corpus.vocab_size());
    RunUpdatePhiKernel(f.device, f.cfg, f.chunk, next);
    RunComputeNkKernel(f.device, f.cfg, next);
    f.replica = std::move(next);
    RunUpdateThetaKernel(f.device, f.cfg, f.chunk);
  }
  EXPECT_LT(f.chunk.theta.nnz(), initial_nnz);
}

// ------------------------------------------------------------ compute nk --

TEST(ComputeNk, MatchesRowSums) {
  Fixture f;
  std::fill(f.replica.nk.begin(), f.replica.nk.end(), -1);
  RunComputeNkKernel(f.device, f.cfg, f.replica);
  for (uint32_t k = 0; k < f.cfg.num_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < f.corpus.vocab_size(); ++v) {
      sum += f.replica.phi(k, v);
    }
    EXPECT_EQ(f.replica.nk[k], sum);
  }
}

TEST(ComputeNk, BillsFullPhiScan) {
  Fixture f;
  const auto rec = RunComputeNkKernel(f.device, f.cfg, f.replica);
  const uint64_t expected = static_cast<uint64_t>(f.cfg.num_topics) *
                            f.corpus.vocab_size() * 2;
  EXPECT_NEAR(static_cast<double>(rec.counters.global_read_bytes),
              static_cast<double>(expected), expected * 0.01);
}

}  // namespace
}  // namespace culda::core
