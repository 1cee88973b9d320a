#include "validate/invariants.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace culda::validate {

namespace {

[[noreturn]] void Fail(const char* invariant, std::string_view context,
                       const std::string& detail) {
  std::string where;
  if (!context.empty()) {
    where.append(context);
    where.append(": ");
  }
  throw ValidationError(invariant, where + detail);
}

std::string Cell(uint32_t k, uint32_t v) {
  std::ostringstream os;
  os << "(topic " << k << ", word " << v << ")";
  return os.str();
}

/// nk-matches-phi over any φ layout indexed as phi(k, v): the device
/// replicas (word-major) and a served model (topic-major) share it.
template <typename Phi>
void CheckNkMatchesCounts(const Phi& phi, uint32_t num_topics,
                          uint32_t vocab_size, std::span<const int32_t> nk,
                          std::string_view context) {
  if (nk.size() != num_topics) {
    std::ostringstream os;
    os << "n_k has " << nk.size() << " entries for " << num_topics
       << " topics";
    Fail("nk-matches-phi", context, os.str());
  }
  for (uint32_t k = 0; k < num_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < vocab_size; ++v) sum += phi(k, v);
    if (sum != nk[k]) {
      std::ostringstream os;
      os << "n_k[" << k << "] = " << nk[k] << " but φ row " << k
         << " sums to " << sum;
      Fail("nk-matches-phi", context, os.str());
    }
  }
}

}  // namespace

void CheckChunkLayout(const corpus::Corpus& corpus,
                      const core::ChunkState& chunk,
                      std::string_view context) {
  // The layout's own deep check against the corpus slice.
  try {
    chunk.layout.Validate(corpus);
  } catch (const ValidationError&) {
    throw;
  } catch (const Error& e) {
    Fail("chunk-layout", context, e.what());
  }

  // The block work list must partition [0, tokens) into per-word ranges.
  // BuildBlockWorkList orders blocks heaviest-first, so sort a copy by
  // token_begin and demand exact contiguous coverage.
  std::vector<corpus::BlockWork> work(chunk.work.begin(), chunk.work.end());
  std::sort(work.begin(), work.end(),
            [](const corpus::BlockWork& a, const corpus::BlockWork& b) {
              return a.token_begin < b.token_begin;
            });
  uint64_t covered = 0;
  for (size_t b = 0; b < work.size(); ++b) {
    const corpus::BlockWork& bw = work[b];
    if (bw.token_begin != covered || bw.token_end <= bw.token_begin) {
      std::ostringstream os;
      os << "block " << b << " covers tokens [" << bw.token_begin << ", "
         << bw.token_end << ") but coverage stands at " << covered;
      Fail("chunk-layout", context, os.str());
    }
    if (bw.word >= chunk.layout.vocab_size ||
        bw.token_begin < chunk.layout.word_offsets[bw.word] ||
        bw.token_end > chunk.layout.word_offsets[bw.word + 1]) {
      std::ostringstream os;
      os << "block " << b << " claims word " << bw.word
         << " outside that word's token segment";
      Fail("chunk-layout", context, os.str());
    }
    covered = bw.token_end;
  }
  if (covered != chunk.layout.num_tokens()) {
    std::ostringstream os;
    os << "work list covers " << covered << " of "
       << chunk.layout.num_tokens() << " tokens";
    Fail("chunk-layout", context, os.str());
  }
}

void CheckAssignmentsInRange(const core::CuldaConfig& cfg,
                             const core::ChunkState& chunk,
                             std::string_view context) {
  if (chunk.z.size() != chunk.layout.num_tokens()) {
    std::ostringstream os;
    os << "z holds " << chunk.z.size() << " assignments for "
       << chunk.layout.num_tokens() << " tokens";
    Fail("z-topic-range", context, os.str());
  }
  for (uint64_t t = 0; t < chunk.z.size(); ++t) {
    if (chunk.z[t] >= cfg.num_topics) {
      std::ostringstream os;
      os << "z[" << t << "] (global token " << chunk.layout.token_global[t]
         << ") = " << chunk.z[t] << " but K = " << cfg.num_topics;
      Fail("z-topic-range", context, os.str());
    }
  }
}

void CheckThetaMatchesZ(const core::CuldaConfig& cfg,
                        const core::ChunkState& chunk,
                        std::string_view context) {
  try {
    chunk.theta.Validate();
  } catch (const Error& e) {
    Fail("theta-structure", context, e.what());
  }
  if (chunk.theta.rows() != chunk.num_docs() ||
      chunk.theta.cols() != cfg.num_topics) {
    std::ostringstream os;
    os << "θ is " << chunk.theta.rows() << "×" << chunk.theta.cols()
       << " for a chunk of " << chunk.num_docs() << " documents and K = "
       << cfg.num_topics;
    Fail("theta-structure", context, os.str());
  }

  // Per-document histogram of z via the doc→token map, compared exactly
  // against the CSR row (same touched-topic walk as the θ-update kernel).
  std::vector<int64_t> dense(cfg.num_topics, 0);
  std::vector<uint16_t> touched;
  for (uint64_t d = 0; d < chunk.num_docs(); ++d) {
    touched.clear();
    for (uint64_t i = chunk.layout.doc_map_offsets[d];
         i < chunk.layout.doc_map_offsets[d + 1]; ++i) {
      const uint16_t k = chunk.z[chunk.layout.doc_map[i]];
      if (dense[k]++ == 0) touched.push_back(k);
    }
    std::sort(touched.begin(), touched.end());

    const auto idx = chunk.theta.RowIndices(d);
    const auto val = chunk.theta.RowValues(d);
    bool ok = idx.size() == touched.size();
    for (size_t i = 0; ok && i < idx.size(); ++i) {
      ok = idx[i] == touched[i] && val[i] == dense[touched[i]];
    }
    if (!ok) {
      std::ostringstream os;
      os << "θ row for document " << d << " disagrees with z: stored "
         << idx.size() << " topics";
      for (size_t i = 0; i < idx.size() && i < 8; ++i) {
        os << (i == 0 ? " {" : ", ") << idx[i] << ":" << val[i];
      }
      if (!idx.empty()) os << "}";
      os << ", z counts " << touched.size() << " topics";
      for (size_t i = 0; i < touched.size() && i < 8; ++i) {
        os << (i == 0 ? " {" : ", ") << touched[i] << ":"
           << dense[touched[i]];
      }
      if (!touched.empty()) os << "}";
      for (const uint16_t k : touched) dense[k] = 0;
      Fail("theta-matches-z", context, os.str());
    }
    for (const uint16_t k : touched) dense[k] = 0;
  }
}

void CheckNkMatchesPhi(const core::PhiReplica& replica,
                       std::string_view context) {
  CheckNkMatchesCounts(replica.phi, replica.num_topics, replica.vocab_size,
                       replica.nk, context);
}

void CheckPhiTotalTokens(const core::PhiReplica& replica,
                         uint64_t expected_tokens, std::string_view context) {
  uint64_t total = 0;
  for (const uint16_t c : replica.phi.flat()) total += c;
  if (total != expected_tokens) {
    std::ostringstream os;
    os << "ΣΣ φ = " << total << " but the corpus has " << expected_tokens
       << " tokens";
    Fail("phi-total-tokens", context, os.str());
  }
}

void CheckPhiMatchesZ(std::span<const core::ChunkState> chunks,
                      const core::PhiReplica& replica,
                      std::string_view context) {
  const uint32_t K = replica.num_topics;
  const uint32_t V = replica.vocab_size;
  std::vector<uint32_t> expected(static_cast<size_t>(K) * V, 0);
  for (const core::ChunkState& chunk : chunks) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      const uint16_t k = chunk.z[t];
      const uint32_t w = chunk.layout.token_word[t];
      if (k >= K || w >= V) {
        std::ostringstream os;
        os << "token " << t << " carries " << Cell(k, w)
           << " outside the " << K << "×" << V << " model";
        Fail("phi-matches-z", context, os.str());
      }
      ++expected[static_cast<size_t>(k) * V + w];
    }
  }
  for (uint32_t k = 0; k < K; ++k) {
    for (uint32_t v = 0; v < V; ++v) {
      if (replica.phi(k, v) != expected[static_cast<size_t>(k) * V + v]) {
        std::ostringstream os;
        os << "φ" << Cell(k, v) << " = " << replica.phi(k, v)
           << " but z assigns "
           << expected[static_cast<size_t>(k) * V + v]
           << " tokens of that word to that topic";
        Fail("phi-matches-z", context, os.str());
      }
    }
  }
}

void CheckPhiSaturationMargin(const core::PhiReplica& replica,
                              uint32_t margin, std::string_view context) {
  if (margin == 0) return;
  const uint32_t ceiling = margin >= 0xFFFF ? 0 : 0xFFFF - margin;
  for (uint32_t k = 0; k < replica.num_topics; ++k) {
    for (uint32_t v = 0; v < replica.vocab_size; ++v) {
      if (replica.phi(k, v) >= ceiling) {
        std::ostringstream os;
        os << "φ" << Cell(k, v) << " = " << replica.phi(k, v)
           << " is within "
           << margin << " of the 16-bit ceiling (65535); the compressed "
           << "counts of §6.1.3 are about to wrap";
        Fail("phi-saturation-margin", context, os.str());
      }
    }
  }
}

void ValidateChunk(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                   const core::ChunkState& chunk, std::string_view context) {
  CheckChunkLayout(corpus, chunk, context);
  CheckAssignmentsInRange(cfg, chunk, context);
  CheckThetaMatchesZ(cfg, chunk, context);
}

void ValidateModelState(const corpus::Corpus& corpus,
                        const core::CuldaConfig& cfg,
                        std::span<const core::ChunkState> chunks,
                        const core::PhiReplica& model,
                        const ValidateOptions& options) {
  uint64_t tokens = 0, next_doc = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const std::string context = "chunk " + std::to_string(c);
    if (chunks[c].layout.spec.doc_begin != next_doc) {
      std::ostringstream os;
      os << "begins at document " << chunks[c].layout.spec.doc_begin
         << " but coverage stands at " << next_doc;
      Fail("chunk-coverage", context, os.str());
    }
    next_doc = chunks[c].layout.spec.doc_end;
    tokens += chunks[c].num_tokens();
    ValidateChunk(corpus, cfg, chunks[c], context);
  }
  if (next_doc != corpus.num_docs() || tokens != corpus.num_tokens()) {
    std::ostringstream os;
    os << "chunks cover " << next_doc << "/" << corpus.num_docs()
       << " documents and " << tokens << "/" << corpus.num_tokens()
       << " tokens";
    Fail("chunk-coverage", {}, os.str());
  }

  CheckNkMatchesPhi(model);
  CheckPhiTotalTokens(model, corpus.num_tokens());
  CheckPhiMatchesZ(chunks, model);
  CheckPhiSaturationMargin(model, options.saturation_margin);
}

void ValidateServedModel(const core::GatheredModel& model) {
  try {
    model.theta.Validate();
  } catch (const Error& e) {
    Fail("model-consistency", {}, e.what());
  }
  if (model.theta.rows() != model.num_docs ||
      model.theta.cols() != model.num_topics) {
    std::ostringstream os;
    os << "θ is " << model.theta.rows() << "×" << model.theta.cols()
       << " but the model declares " << model.num_docs << " documents and "
       << model.num_topics << " topics";
    Fail("model-consistency", {}, os.str());
  }
  for (const int32_t c : model.theta.values()) {
    if (c <= 0) {
      Fail("model-consistency", {},
           "θ stores a non-positive count " + std::to_string(c));
    }
  }
  if (model.phi.rows() != model.num_topics ||
      model.phi.cols() != model.vocab_size) {
    std::ostringstream os;
    os << "φ is " << model.phi.rows() << "×" << model.phi.cols()
       << " but the model declares K = " << model.num_topics << ", V = "
       << model.vocab_size;
    Fail("model-consistency", {}, os.str());
  }
  CheckNkMatchesCounts(model.phi, model.num_topics, model.vocab_size,
                       model.nk, "served model");
}

}  // namespace culda::validate
