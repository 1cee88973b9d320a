// Ablation A4 — partition-by-document vs partition-by-word (Section 4).
//
// Under partition-by-document every GPU owns its documents' θ rows and must
// synchronize only the K×V φ replicas; under partition-by-word it is the
// reverse: φ is owned, but the D×K θ must be synchronized. The paper picks
// by-document because D is orders of magnitude larger than V. This bench
// computes both per-iteration sync volumes from live models on both dataset
// profiles — and on the *full-size* Table 3 dimensions.
#include <cstdio>

#include "common.hpp"
#include "core/word_partition.hpp"

using namespace culda;

namespace {

/// Per-iteration sync bytes under each partition policy, for G GPUs with a
/// reduce+broadcast tree (each stage moves the whole replica G−1 times).
struct SyncVolumes {
  double by_document_mb;  ///< φ replicas: K×V cells
  double by_word_mb;      ///< θ replicas: nnz(θ) entries (CSR) or D×K dense
};

SyncVolumes Volumes(uint64_t theta_nnz, uint64_t num_topics,
                    uint64_t vocab_size, int gpus,
                    const core::CuldaConfig& cfg) {
  const double transfers = 2.0 * (gpus - 1);  // reduce + broadcast legs
  SyncVolumes v{};
  v.by_document_mb = transfers * num_topics * vocab_size *
                     cfg.phi_count_bytes() / 1e6;
  v.by_word_mb = transfers * theta_nnz *
                 (cfg.theta_index_bytes() + sizeof(int32_t)) / 1e6;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  // The table rows' corpora grow with --scale, and so does their heaviest
  // word: past 0.4 it occurs more than 65,535 times, the 16-bit φ count cap
  // (ROADMAP item 5) every trainer rejects. 0.3 keeps it near 47,000.
  const double scale = flags.GetDouble("scale", 0.3);
  constexpr double kMaxScale = 0.4;
  if (scale > kMaxScale) {
    std::fprintf(stderr,
                 "error: --scale=%g puts the bench corpora's heaviest word "
                 "over the 65535 phi count cap; use --scale<=%g\n",
                 scale, kMaxScale);
    return 1;
  }
  bench::PrintBanner(
      "Ablation A4 — workload partition policy (Section 4)",
      "Per-iteration model-sync volume: partition-by-document syncs phi "
      "(K x V),\npartition-by-word would sync theta (D x K).");

  core::CuldaConfig cfg = bench::BenchConfig(flags);
  const int gpus = static_cast<int>(flags.GetInt("gpus", 4));

  TextTable t({"Dataset", "D", "V", "theta nnz", "by-doc sync MB",
               "by-word sync MB", "ratio (word/doc)"});

  struct Case {
    std::string name;
    corpus::SyntheticProfile profile;
  };
  for (const auto& c :
       {Case{"NYTimes(bench)", bench::NyTimesBenchProfile(scale)},
        Case{"PubMed(bench)", bench::PubMedBenchProfile(scale)}}) {
    const auto corpus = bench::MakeCorpus(flags, c.profile, "none");
    core::TrainerOptions opts;
    opts.gpus.assign(gpus, gpusim::TitanXpPascal());
    core::CuldaTrainer trainer(corpus, cfg, opts);
    trainer.Train(3);  // let θ settle to its working sparsity
    const uint64_t nnz = trainer.Gather().theta.nnz();
    const auto v =
        Volumes(nnz, cfg.num_topics, corpus.vocab_size(), gpus, cfg);
    t.AddRow({c.name, std::to_string(corpus.num_docs()),
              std::to_string(corpus.vocab_size()), std::to_string(nnz),
              TextTable::Num(v.by_document_mb, 4),
              TextTable::Num(v.by_word_mb, 4),
              TextTable::Num(v.by_word_mb / v.by_document_mb, 3)});
  }

  // Full-size Table 3 dimensions (analytic: θ nnz ≈ min(len, K) per doc).
  struct FullCase {
    const char* name;
    uint64_t docs, vocab, tokens;
    double avg_len;
  };
  for (const auto& c : {FullCase{"NYTimes(full)", 299752, 101636, 99542125,
                                 332.0},
                        FullCase{"PubMed(full)", 8200000, 141043, 737869083,
                                 90.0}}) {
    const double kd = std::min<double>(cfg.num_topics, c.avg_len * 0.6);
    const uint64_t nnz = static_cast<uint64_t>(kd * c.docs);
    const auto v = Volumes(nnz, cfg.num_topics, c.vocab, gpus, cfg);
    t.AddRow({c.name, std::to_string(c.docs), std::to_string(c.vocab),
              std::to_string(nnz) + " (est)",
              TextTable::Num(v.by_document_mb, 4),
              TextTable::Num(v.by_word_mb, 4),
              TextTable::Num(v.by_word_mb / v.by_document_mb, 3)});
  }

  bench::RejectUnknownFlags(flags);
  t.Print();

  // Measured head-to-head: both trainers implement the same sampler and
  // produce bit-identical models (tests/test_word_partition.cpp), so the
  // difference below is pure synchronization cost.
  {
    // The measured run keeps the *real* corpora's D ≫ V relationship
    // (PubMed: D/V ≈ 58) — the uniform bench scaling shrinks D far more
    // than V, which would invert the comparison and say nothing about
    // full-scale behaviour. Its documents are short (20 tokens, not 90) so
    // the heaviest of the 2,000 words stays under the 65,535 φ count cap:
    // ~586k tokens put word 0 near 48,000 occurrences.
    corpus::SyntheticProfile p = bench::PubMedBenchProfile(scale);
    p.num_docs = 30000;
    p.vocab_size = 2000;
    p.avg_doc_length = 20;
    const auto corpus = corpus::GenerateCorpus(p);
    const int iters = 3;

    core::TrainerOptions doc_opts;
    doc_opts.gpus.assign(gpus, gpusim::TitanXpPascal());
    core::CuldaTrainer by_doc(corpus, cfg, doc_opts);
    core::WordPartitionTrainer by_word(
        corpus, cfg,
        std::vector<gpusim::DeviceSpec>(gpus, gpusim::TitanXpPascal()));

    double doc_ms = 0, doc_sync = 0, word_ms = 0, word_sync = 0;
    for (int i = 0; i < iters; ++i) {
      const auto a = by_doc.Step();
      doc_ms += a.sim_seconds * 1e3;
      doc_sync += a.sync_s * 1e3;
      const auto b = by_word.Step();
      word_ms += b.sim_seconds * 1e3;
      word_sync += b.sync_s * 1e3;
    }
    TextTable m({"policy (measured, PubMed bench profile)", "ms/iter",
                 "sync ms/iter"});
    m.AddRow({"partition-by-document (CuLDA)",
              TextTable::Num(doc_ms / iters, 4),
              TextTable::Num(doc_sync / iters, 4)});
    m.AddRow({"partition-by-word (rejected)",
              TextTable::Num(word_ms / iters, 4),
              TextTable::Num(word_sync / iters, 4)});
    m.Print();
  }

  std::printf(
      "\nShape check: at full scale D >> V, so syncing θ costs many times\n"
      "more than syncing φ — especially on PubMed (8.2M docs). That is\n"
      "Section 4's argument for partition-by-document verbatim; the bench-\n"
      "scale measured gap above is smaller because D is scaled down ~50×\n"
      "more than V.\n");
  return 0;
}
