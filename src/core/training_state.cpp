#include "core/training_state.hpp"

#include "corpus/chunking.hpp"

namespace culda::core {

namespace {

/// Rejects an empty corpus, and one whose φ counts could wrap 16 bits
/// (§6.1.3): a synced replica holds *global* counts, so a word's cell
/// reaches its corpus frequency if every occurrence lands on one topic.
void CheckTrainable(const corpus::Corpus& corpus) {
  CULDA_CHECK_MSG(corpus.num_tokens() > 0, "cannot train on an empty corpus");
  const std::vector<uint64_t> freq = corpus.WordFrequencies();
  for (size_t v = 0; v < freq.size(); ++v) {
    // The paper prunes stop words, which removes exactly these.
    CULDA_CHECK_MSG(freq[v] <= 0xFFFF,
                    "word " << v << " occurs " << freq[v]
                            << " times; 16-bit φ counts can overflow beyond "
                               "65535 occurrences — prune heavy/stop words "
                               "first");
  }
}

}  // namespace

void ForEachCell(ThreadPool* pool, size_t cells,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->worker_count() > 0 && cells > 1) {
    pool->ParallelFor(cells, fn);
  } else {
    for (size_t i = 0; i < cells; ++i) fn(i);
  }
}

TrainingState TrainingState::ByDocuments(const corpus::Corpus& corpus,
                                         const CuldaConfig& cfg,
                                         uint32_t num_chunks,
                                         ThreadPool* pool,
                                         PhiBuffers buffers) {
  const auto specs = corpus::PartitionByTokens(corpus, num_chunks);
  return TrainingState(corpus, cfg, specs.size(), pool, buffers, false,
                       [&](size_t c) {
                         return corpus::BuildWordFirstChunk(corpus, specs[c]);
                       });
}

TrainingState TrainingState::ByWordRanges(
    const corpus::Corpus& corpus, const CuldaConfig& cfg,
    std::span<const corpus::WordRange> ranges, ThreadPool* pool) {
  return TrainingState(corpus, cfg, ranges.size(), pool,
                       PhiBuffers::kDoubleBuffered, true, [&](size_t c) {
                         return corpus::BuildWordRangeChunk(corpus, ranges[c]);
                       });
}

TrainingState::TrainingState(
    const corpus::Corpus& corpus, const CuldaConfig& cfg, size_t num_chunks,
    ThreadPool* pool, PhiBuffers buffers, bool by_words,
    const std::function<corpus::WordFirstChunk(size_t)>& make_layout)
    : chunks(num_chunks),
      corpus_(&corpus),
      num_topics_(cfg.num_topics),
      by_words_(by_words) {
  CheckTrainable(corpus);
  // Chunks are independent (each reads only the corpus and fills its own
  // slot), so they build concurrently and land in chunk order.
  ForEachCell(pool, num_chunks, [&](size_t c) {
    ChunkState& chunk = chunks[c];
    chunk.layout = make_layout(c);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg.max_tokens_per_block);
    chunk.z.resize(chunk.layout.num_tokens());
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      chunk.z[t] =
          InitialTopic(cfg.seed, chunk.layout.token_global[t], cfg.num_topics);
    }
    chunk.theta = ThetaMatrix(chunk.layout.num_docs(), cfg.num_topics);
  });
  model = PhiReplica(cfg.num_topics, corpus.vocab_size());
  if (buffers == PhiBuffers::kDoubleBuffered) {
    accum = PhiReplica(cfg.num_topics, corpus.vocab_size());
  }
}

GatheredModel TrainingState::Gather() const {
  GatheredModel out;
  out.num_topics = num_topics_;
  out.vocab_size = corpus_->vocab_size();
  out.num_docs = corpus_->num_docs();
  if (by_words_) {
    out.theta = chunks.front().theta;  // every chunk holds the global θ
  } else {
    // Document chunks are contiguous ascending ranges; walk them in order.
    out.theta = ThetaMatrix(corpus_->num_docs(), num_topics_);
    ThetaMatrix::RowBuilder builder(&out.theta);
    size_t next_doc = 0;
    for (const ChunkState& chunk : chunks) {
      CULDA_CHECK(chunk.layout.spec.doc_begin == next_doc);
      for (uint64_t d = 0; d < chunk.num_docs(); ++d) {
        builder.AppendRow(next_doc++, chunk.theta.RowIndices(d),
                          chunk.theta.RowValues(d));
      }
    }
    builder.Finish();
  }
  out.phi = model.phi;
  out.nk = model.nk;
  return out;
}

uint64_t TrainingState::ThetaNnz() const {
  if (by_words_) return chunks.front().theta.nnz();
  uint64_t nnz = 0;
  for (const ChunkState& chunk : chunks) nnz += chunk.theta.nnz();
  return nnz;
}

std::vector<uint16_t> TrainingState::ExportAssignments() const {
  std::vector<uint16_t> z(corpus_->num_tokens());
  for (const ChunkState& chunk : chunks) {
    ScatterToCorpusOrder(chunk.layout, chunk.z, z);
  }
  return z;
}

void TrainingState::ImportAssignments(std::span<const uint16_t> z_doc_major) {
  CULDA_CHECK_MSG(z_doc_major.size() == corpus_->num_tokens(),
                  "assignment vector must cover every corpus token");
  for (const uint16_t z : z_doc_major) {
    CULDA_CHECK_MSG(z < num_topics_, "topic id out of range");
  }
  for (ChunkState& chunk : chunks) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      chunk.z[t] = z_doc_major[chunk.layout.token_global[t]];
    }
  }
  model.Clear();
}

void ScatterToCorpusOrder(const corpus::WordFirstChunk& layout,
                          std::span<const uint16_t> z,
                          std::span<uint16_t> z_doc_major) {
  for (uint64_t t = 0; t < z.size(); ++t) {
    z_doc_major[layout.token_global[t]] = z[t];
  }
}

}  // namespace culda::core
