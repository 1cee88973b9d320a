// TrainingState — the one training state of Algorithm 1 and Section 5.1:
// token-balanced chunks seeded with random topics, θ per chunk, and the φ
// double buffer. Only this module builds, seeds, gathers and routes it;
// CuldaTrainer (WS1/WS2), WordPartitionTrainer, dist::ClusterTrainer (sync
// and async), GpuDenseLda and SaberGpuLda each own one and keep only their
// schedule: which device runs which chunk, which kernels and syncs they bill.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/model.hpp"
#include "corpus/corpus.hpp"
#include "corpus/word_first.hpp"
#include "util/check.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {

/// The initial topic of corpus token `global_token`: Philox(seed, global
/// token) mod K, the one keyed init draw of every trainer and baseline, so
/// the initial state does not depend on partition, chunking or schedule.
inline uint16_t InitialTopic(uint64_t seed, uint64_t global_token,
                             uint32_t num_topics) {
  PhiloxStream rng(seed, global_token);
  // NextBelow(K) < K <= 0xFFFF (CuldaConfig::Validate), so the narrowing is
  // provably lossless; the DCHECK keeps it honest if the K cap moves.
  const uint32_t topic = rng.NextBelow(num_topics);
  CULDA_DCHECK(topic <= 0xFFFF);
  return static_cast<uint16_t>(topic);
}

/// The one trainability check of every solver: rejects an empty corpus, and
/// one whose φ counts could wrap 16 bits (§6.1.3) — a synced replica holds
/// *global* counts, so a word's cell reaches its corpus frequency if every
/// occurrence lands on one topic. The culda::Error names the word, its count
/// and the 65535 cap.
void CheckTrainable(const corpus::Corpus& corpus);

/// Runs fn(i) for every cell i < cells (a device, a chunk, a node×GPU pair):
/// on `pool` when it has workers and there are several cells, else inline.
/// Cells touch disjoint state (or add into a shared φ atomically); callers
/// reduce per-cell partials in cell order, so sums ignore the interleaving.
void ForEachCell(ThreadPool* pool, size_t cells,
                 const std::function<void(size_t)>& fn);

/// Every schedule reads `model`; all but the cluster's async rounds (which
/// fold count deltas into the read model) rebuild φ into `accum` and swap.
enum class PhiBuffers { kDoubleBuffered, kReadModelOnly };

class TrainingState {
 public:
  /// C = num_chunks token-balanced document-range chunks (Section 4's
  /// partition by document); chunk c holds θ of its own documents.
  static TrainingState ByDocuments(
      const corpus::Corpus& corpus, const CuldaConfig& cfg,
      uint32_t num_chunks, ThreadPool* pool,
      PhiBuffers buffers = PhiBuffers::kDoubleBuffered);
  /// One chunk per vocabulary range (the partition by word Section 4
  /// rejects). Every chunk's θ spans all documents; the owner keeps each
  /// equal to the global θ between iterations.
  static TrainingState ByWordRanges(const corpus::Corpus& corpus,
                                    const CuldaConfig& cfg,
                                    std::span<const corpus::WordRange> ranges,
                                    ThreadPool* pool);

  TrainingState() = default;  ///< empty until assigned from a builder

  /// In id order: word-first layout, block work list, z from InitialTopic,
  /// and a zero θ.
  std::vector<ChunkState> chunks;
  /// The read model every sampling kernel sees (iteration t−1), built all
  /// zero for the owner to fill from z. One host copy stands for every
  /// device replica of its consistency domain; kernels, syncs and
  /// footprints are still billed per device (docs/simulator.md).
  PhiReplica model;
  /// What update_phi accumulates during iteration t, swapped into `model`
  /// at the sync (empty under kReadModelOnly).
  PhiReplica accum;

  /// θ over every document in corpus order, with φ and n_k of `model`.
  GatheredModel Gather() const;
  uint64_t ThetaNnz() const;

  /// Topic assignments in corpus document-major order.
  std::vector<uint16_t> ExportAssignments() const;
  /// Replaces every assignment (document-major, one per corpus token, each
  /// < K; throws culda::Error otherwise) and zeroes `model`, which no longer
  /// matches z: the owner rebuilds the counts next.
  void ImportAssignments(std::span<const uint16_t> z_doc_major);

 private:
  /// Chunk c from make_layout(c), for c < num_chunks, and the zero φ.
  TrainingState(const corpus::Corpus& corpus, const CuldaConfig& cfg,
                size_t num_chunks, ThreadPool* pool, PhiBuffers buffers,
                bool by_words,
                const std::function<corpus::WordFirstChunk(size_t)>&
                    make_layout);

  const corpus::Corpus* corpus_ = nullptr;
  uint32_t num_topics_ = 0;
  bool by_words_ = false;
};

/// Writes one chunk's word-first `z` into its document-major slots.
void ScatterToCorpusOrder(const corpus::WordFirstChunk& layout,
                          std::span<const uint16_t> z,
                          std::span<uint16_t> z_doc_major);

}  // namespace culda::core
