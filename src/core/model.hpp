// Model state for CuLDA training.
//
// Partition-by-document (Section 4): the corpus is split into chunks; every
// chunk owns its documents' θ rows outright (no synchronization needed),
// while each GPU accumulates a φ replica from its local tokens that must be
// reduced and re-broadcast every iteration.
//
// Data representations follow Section 6.1.3: θ is CSR with 16-bit topic
// indices; φ is a dense K×V matrix of 16-bit counts; per-topic totals
// n_k = Σ_v φ_kv are 32-bit (they exceed 2^16 on any real corpus). The
// simulator's host copies of φ are stored word-major (WordMajorPhi below);
// the billed device model is still the dense K×V one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "corpus/word_first.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace culda {
class ThreadPool;
}  // namespace culda

namespace culda::core {

using ThetaMatrix = sparse::CsrMatrix<uint16_t, int32_t>;
using PhiMatrix = sparse::DenseMatrix<uint16_t>;

/// Host-resident state of one corpus chunk: the word-first token layout, the
/// per-block work list, the current topic assignment z, and the chunk's θ
/// rows. (The simulator is functional — "device" copies of these arrays are
/// capacity/transfer bookkeeping on the owning gpusim::Device.)
struct ChunkState {
  corpus::WordFirstChunk layout;
  std::vector<corpus::BlockWork> work;
  std::vector<uint16_t> z;  ///< topic per token, in word-first order
  ThetaMatrix theta;        ///< rows = chunk-local documents

  uint64_t num_tokens() const { return layout.num_tokens(); }
  uint64_t num_docs() const { return layout.num_docs(); }

  /// Device footprint of this chunk (tokens + doc map + z + θ at its dense
  /// worst case), used for the scheduler's capacity check (Section 5.1).
  uint64_t DeviceBytes(const CuldaConfig& cfg) const {
    const uint64_t theta_worst =
        num_tokens() * (cfg.theta_index_bytes() + sizeof(int32_t)) +
        (num_docs() + 1) * sizeof(uint64_t);
    return layout.DeviceBytes() + z.size() * sizeof(uint16_t) + theta_worst;
  }
};

/// The 16-bit φ counts of a device replica, stored word-major (V×K) on the
/// host. Every kernel visits φ one word at a time — the sampling kernels'
/// per-block p* pass, a word-first block's update_phi atomics, word-range
/// shard copies — so keeping a word's K topic counts contiguous turns each
/// strided K-element gather into one contiguous read (WarpLDA's locality
/// argument for visiting φ word by word). The layout is a host detail:
/// kernels still bill the paper's dense K×V device matrix, and gathered
/// models are topic-major PhiMatrix (TopicMajor). Deliberately not a
/// DenseMatrix, so topic-major Row(k) access does not compile.
class WordMajorPhi {
 public:
  WordMajorPhi() = default;
  WordMajorPhi(uint32_t num_topics, uint32_t vocab_size)
      : words_(vocab_size, num_topics) {}

  uint32_t num_topics() const { return static_cast<uint32_t>(words_.cols()); }
  uint32_t vocab_size() const { return static_cast<uint32_t>(words_.rows()); }

  /// Count of topic k for word w.
  uint16_t& operator()(size_t k, size_t w) { return words_(w, k); }
  uint16_t operator()(size_t k, size_t w) const { return words_(w, k); }

  /// The K topic counts of word w, contiguous.
  std::span<uint16_t> Word(size_t w) { return words_.Row(w); }
  std::span<const uint16_t> Word(size_t w) const { return words_.Row(w); }

  /// Words [begin, end) as one contiguous run of (end − begin)·K counts.
  std::span<uint16_t> Words(size_t begin, size_t end) {
    CULDA_DCHECK(begin <= end && end <= words_.rows());
    return words_.flat().subspan(begin * words_.cols(),
                                 (end - begin) * words_.cols());
  }
  std::span<const uint16_t> Words(size_t begin, size_t end) const {
    CULDA_DCHECK(begin <= end && end <= words_.rows());
    return words_.flat().subspan(begin * words_.cols(),
                                 (end - begin) * words_.cols());
  }

  /// All counts in storage (word-major) order, for element-wise work.
  std::span<uint16_t> flat() { return words_.flat(); }
  std::span<const uint16_t> flat() const { return words_.flat(); }

  void Fill(uint16_t v) { words_.Fill(v); }

  /// The whole matrix, topic-major (a cache-blocked transpose).
  PhiMatrix TopicMajor() const;

 private:
  sparse::DenseMatrix<uint16_t> words_;  ///< V×K
};

/// Per-device replica state: φ and n_k.
struct PhiReplica {
  uint32_t num_topics = 0;
  uint32_t vocab_size = 0;
  WordMajorPhi phi;           ///< 16-bit counts, word-major on the host
  std::vector<int32_t> nk;    ///< per-topic totals, derived from φ

  PhiReplica() = default;
  PhiReplica(uint32_t k, uint32_t v)
      : num_topics(k), vocab_size(v), phi(k, v), nk(k, 0) {}

  /// Zeroes φ and n_k (the functional half of the zero_phi kernel).
  void Clear();

  /// Recomputes n_k from φ (the functional half of the compute_nk kernel,
  /// which bills its traffic through the device). With a pool, fixed word
  /// tiles are summed in parallel; the totals are the same bits either way.
  void RecomputeTotals(ThreadPool* pool = nullptr);
};

/// Rejects a corpus whose φ counts could wrap 16 bits (§6.1.3). A synced
/// replica holds *global* counts, so a word's cell reaches the word's corpus
/// frequency if every occurrence lands on one topic; a word occurring more
/// than 65535 times could overflow mid-training. Every trainer calls this
/// before building any state. Throws culda::Error naming the first such
/// word, its frequency, and the 65535 cap.
void CheckWordFrequenciesFitPhi(const corpus::Corpus& corpus);

/// The full trained model gathered back to the host (Algorithm 1 lines
/// 17–20): θ over all documents plus the synchronized φ.
struct GatheredModel {
  uint32_t num_topics = 0;
  uint32_t vocab_size = 0;
  uint64_t num_docs = 0;
  ThetaMatrix theta;  ///< rows = all documents, in corpus order
  PhiMatrix phi;
  std::vector<int32_t> nk;

  /// Consistency invariants: Σ_k θ_dk = len_d for every d, Σ_v φ_kv = n_k,
  /// ΣΣ φ = total tokens. Throws on violation.
  void Validate(const corpus::Corpus& corpus) const;
};

}  // namespace culda::core
