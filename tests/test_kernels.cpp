// Tests for the four CuLDA kernels: functional correctness of the model
// updates, sampling determinism and validity, and traffic accounting.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

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

// ---------------------------------------------------------- sampling pass --

std::array<uint64_t, 10> Fields(const gpusim::KernelCounters& c) {
  return {c.global_read_bytes, c.l1_read_bytes,      c.global_write_bytes,
          c.shared_read_bytes, c.shared_write_bytes, c.flops,
          c.int_ops,           c.atomic_ops,         c.blocks,
          c.warps};
}

std::array<double, 7> Fields(const gpusim::KernelTimeBreakdown& t) {
  return {t.dram_s,     t.l1_s,       t.shared_s, t.compute_s,
          t.atomic_s,   t.overhead_s, t.total_s};
}

std::vector<uint64_t> Fields(const SamplingStepCounters& s) {
  std::vector<uint64_t> out;
  for (const gpusim::KernelCounters* c :
       {&s.compute_s, &s.compute_q, &s.sample_p1, &s.sample_p2}) {
    const auto f = Fields(*c);
    out.insert(out.end(), f.begin(), f.end());
  }
  out.insert(out.end(), {s.tokens, s.p1_branches, s.p1_tree_spills,
                         s.mh_proposals, s.mh_accepts});
  return out;
}

struct PassCase {
  std::string name;
  TrainSampler sampler = TrainSampler::kTree;
  size_t workers = 0;  ///< 0 = no pool
  bool mixed = true;   ///< {V100Volta, TitanXMaxwell}, else two TitanX
  bool reuse_pstar = true;
  bool share_p2_tree = true;
  bool use_shared_trees = true;
  bool asym_alpha = false;
};

void PrintTo(const PassCase& pc, std::ostream* os) { *os << pc.name; }

/// Three chunks of one corpus read against one φ, as a trainer holds them.
/// K = 9000 makes the shared-memory capacity matter: p* and the p2 tree fit
/// a V100 block (96 KiB) but not a TitanX one (48 KiB), and so does the
/// alias-MH word table.
struct ThreeChunks {
  corpus::Corpus corpus;
  CuldaConfig cfg;
  std::vector<ChunkState> chunks;
  PhiReplica replica;

  explicit ThreeChunks(const PassCase& pc) {
    corpus::SyntheticProfile p;
    p.num_docs = 24;
    p.vocab_size = 150;
    p.avg_doc_length = 300;
    corpus = corpus::GenerateCorpus(p);

    cfg.num_topics = 9000;
    cfg.max_tokens_per_block = 8;  // heavy words span several blocks
    cfg.reuse_pstar = pc.reuse_pstar;
    cfg.share_p2_tree = pc.share_p2_tree;
    cfg.use_shared_trees = pc.use_shared_trees;
    if (pc.asym_alpha) {
      for (uint32_t k = 0; k < cfg.num_topics; ++k) {
        cfg.asymmetric_alpha.push_back(0.002 + 0.001 * (k % 7));
      }
    }

    gpusim::Device device(gpusim::TitanXMaxwell(), 0);
    replica = PhiReplica(cfg.num_topics, corpus.vocab_size());
    for (const auto& spec : corpus::PartitionByTokens(corpus, 3)) {
      ChunkState& chunk = chunks.emplace_back();
      chunk.layout = corpus::BuildWordFirstChunk(corpus, spec);
      chunk.work =
          corpus::BuildBlockWorkList(chunk.layout, cfg.max_tokens_per_block);
      chunk.z.resize(chunk.layout.num_tokens());
      for (uint64_t t = 0; t < chunk.z.size(); ++t) {
        PhiloxStream rng(cfg.seed, chunk.layout.token_global[t]);
        chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(cfg.num_topics));
      }
      chunk.theta = ThetaMatrix(chunk.layout.num_docs(), cfg.num_topics);
      RunUpdatePhiKernel(device, cfg, chunk, replica);
      RunUpdateThetaKernel(device, cfg, chunk);
    }
    RunComputeNkKernel(device, cfg, replica);
  }
};

class SamplingPassTest : public ::testing::TestWithParam<PassCase> {};

TEST_P(SamplingPassTest, MatchesThePerChunkKernel) {
  const PassCase& pc = GetParam();
  const ThreeChunks f(pc);
  std::unique_ptr<ThreadPool> pool;
  if (pc.workers > 0) pool = std::make_unique<ThreadPool>(pc.workers);
  const auto spec0 =
      pc.mixed ? gpusim::V100Volta() : gpusim::TitanXMaxwell();
  // Chunk c is billed on device c mod 2 in both worlds.
  gpusim::Device pass_dev[2] = {{spec0, 0, pool.get()},
                                {gpusim::TitanXMaxwell(), 1, pool.get()}};
  gpusim::Device ref_dev[2] = {{spec0, 0, pool.get()},
                               {gpusim::TitanXMaxwell(), 1, pool.get()}};
  const uint32_t iteration = 3;
  const uint32_t mh_cycles = 2;

  std::vector<ChunkState> passed = f.chunks;
  const std::vector<const gpusim::Device*> billers = {
      &pass_dev[0], &pass_dev[1], &pass_dev[0]};
  const SamplingPass pass =
      SampleChunks(f.cfg, passed, billers, f.replica, iteration, pool.get(),
                   pc.sampler, mh_cycles);
  ASSERT_EQ(pass.chunks.size(), 3u);

  std::vector<ChunkState> ref = f.chunks;
  std::set<uint32_t> words;
  uint64_t blocks = 0;
  for (size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE("chunk " + std::to_string(c));
    const gpusim::KernelRecord got = BillSamplingKernel(
        pass_dev[c % 2], f.cfg, passed[c], pass.chunks[c]);
    SamplingStepCounters steps;
    const gpusim::KernelRecord want =
        RunSamplingKernel(ref_dev[c % 2], f.cfg, ref[c], f.replica,
                          iteration, nullptr, &steps, pc.sampler, mh_cycles);
    EXPECT_EQ(passed[c].z, ref[c].z);
    EXPECT_NE(passed[c].z, f.chunks[c].z);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(Fields(got.counters), Fields(want.counters));
    EXPECT_EQ(Fields(got.time), Fields(want.time));
    EXPECT_EQ(got.start_s, want.start_s);
    EXPECT_EQ(got.end_s, want.end_s);
    EXPECT_EQ(got.stream_id, want.stream_id);
    EXPECT_EQ(Fields(pass.chunks[c].steps), Fields(steps));
    EXPECT_EQ(steps.tokens, passed[c].num_tokens());
    for (const auto& bw : f.chunks[c].work) words.insert(bw.word);
    blocks += f.chunks[c].work.size();
  }
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(pass_dev[d].Now(), ref_dev[d].Now());
    const auto& got = pass_dev[d].profile().at("sampling");
    const auto& want = ref_dev[d].profile().at("sampling");
    EXPECT_EQ(got.launches, want.launches);
    EXPECT_EQ(got.total_s, want.total_s);
    EXPECT_EQ(Fields(got.counters), Fields(want.counters));
  }
  // One table per distinct word across the three chunks, not one per block.
  EXPECT_EQ(pass.blocks, blocks);
  EXPECT_EQ(pass.word_tables, words.size());
  EXPECT_LT(pass.word_tables, pass.blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SamplingPassTest,
    ::testing::Values(
        PassCase{"Tree"}, PassCase{"TreePool3", TrainSampler::kTree, 3},
        PassCase{"TreeTitanPair", TrainSampler::kTree, 0, false},
        PassCase{"TreeNoReusePstar", TrainSampler::kTree, 3, true, false},
        PassCase{"TreeNoShareP2Tree", TrainSampler::kTree, 0, true, true,
                 false},
        PassCase{"TreeNoSharedTrees", TrainSampler::kTree, 3, true, true,
                 true, false},
        PassCase{"TreeAsymAlphaPool3", TrainSampler::kTree, 3, true, true,
                 true, true, true},
        PassCase{"AliasMh", TrainSampler::kAliasMH},
        PassCase{"AliasMhPool3", TrainSampler::kAliasMH, 3},
        PassCase{"AliasMhAsymAlphaPool3", TrainSampler::kAliasMH, 3, true,
                 true, true, true, true}),
    [](const ::testing::TestParamInfo<PassCase>& info) {
      return info.param.name;
    });

TEST(SamplingPass, SharedCapacityComesFromTheBillingDevice) {
  // The same chunks billed on 96 KiB V100 blocks and on 48 KiB TitanX
  // blocks: the same topics, different billed placement of the tables.
  for (const TrainSampler sampler :
       {TrainSampler::kTree, TrainSampler::kAliasMH}) {
    const ThreeChunks f(PassCase{"", sampler});
    const gpusim::Device v100(gpusim::V100Volta(), 0);
    const gpusim::Device titan(gpusim::TitanXMaxwell(), 0);
    std::vector<ChunkState> a = f.chunks;
    std::vector<ChunkState> b = f.chunks;
    const std::vector<const gpusim::Device*> on_v100(3, &v100);
    const std::vector<const gpusim::Device*> on_titan(3, &titan);
    const SamplingPass pa =
        SampleChunks(f.cfg, a, on_v100, f.replica, 1, nullptr, sampler);
    const SamplingPass pb =
        SampleChunks(f.cfg, b, on_titan, f.replica, 1, nullptr, sampler);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(a[c].z, b[c].z);
      EXPECT_GT(pa.chunks[c].counters.shared_write_bytes,
                pb.chunks[c].counters.shared_write_bytes);
    }
  }
}

TEST(SamplingPass, BillingChecksTheTallyBelongsToTheChunk) {
  Fixture f;
  SamplingPass pass;
  pass.chunks.resize(1);  // an all-zero tally: no blocks recorded
  EXPECT_THROW(BillSamplingKernel(f.device, f.cfg, f.chunk, pass.chunks[0]),
               Error);
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
