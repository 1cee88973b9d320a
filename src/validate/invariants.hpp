// Structural invariant checkers for CuLDA training state (docs/validation.md).
//
// The paper's data-compression design (§6.1.3) stores φ counts, θ column
// indices, and topic assignments in 16 bits. That representation has failure
// modes — a heavy word's count wrapping past 65535, a θ row drifting from
// the z it was compacted from, a mis-applied update moving a φ count — that
// would otherwise corrupt training silently for hundreds of iterations.
// Each checker here verifies one named invariant and throws ValidationError
// with the invariant's name and the first violating location, so corruption
// is reported where it appears, not where it is eventually noticed.
//
// Invariant inventory (names are stable; tests and logs key on them):
//
//   chunk-layout            word-first layout consistent with the corpus
//   chunk-coverage          chunks partition the corpus exactly
//   z-topic-range           every assignment is a valid topic id
//   theta-structure         θ CSR structurally valid
//   theta-matches-z         θ rows equal per-document histograms of z
//   nk-matches-phi          n_k equals Σ_v φ_kv for every topic
//   phi-total-tokens        ΣΣ φ equals the corpus token count
//   phi-matches-z           φ cells equal per-(topic,word) histograms of z
//   phi-saturation-margin   no φ cell within `saturation_margin` of 65535
//   model-consistency       gathered-model checks for serving (no corpus)
//
// All checkers are read-only; a state that passes them is bit-identical to
// one that was never checked (pinned by Validate.BitIdenticalWithAndWithout).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/model.hpp"
#include "corpus/corpus.hpp"
#include "util/check.hpp"

namespace culda::validate {

/// Thrown on the first violated invariant. `invariant()` is the stable name
/// from the inventory above; what() carries the name plus the violating
/// location (chunk/document/topic/word/token index and the conflicting
/// values).
class ValidationError : public Error {
 public:
  ValidationError(std::string invariant, const std::string& detail)
      : Error("invariant '" + invariant + "' violated: " + detail),
        invariant_(std::move(invariant)) {}

  const std::string& invariant() const { return invariant_; }

 private:
  std::string invariant_;
};

struct ValidateOptions {
  /// A φ cell at or above 65535 − margin fails `phi-saturation-margin`: the
  /// count is not wrong yet, but one more epoch of drift toward a single
  /// topic would wrap it, so the run is stopped while the state is still
  /// exact. 0 disables the margin (update_phi's hard overflow guard, which
  /// sees every device's adds into the one host φ, stays on regardless).
  uint32_t saturation_margin = 1024;
};

// --- Named checkers ---------------------------------------------------------
// `context` (e.g. "chunk 3") prefixes the reported location. Each throws
// ValidationError on the first violation and returns normally otherwise.

/// `chunk-layout`: the word-first layout agrees with the corpus slice it
/// claims to cover (word segments, token_global mapping, doc-map
/// permutation) and the block work list partitions the chunk's tokens.
void CheckChunkLayout(const corpus::Corpus& corpus,
                      const core::ChunkState& chunk,
                      std::string_view context = {});

/// `z-topic-range`: z has one entry per token and every entry is < K.
void CheckAssignmentsInRange(const core::CuldaConfig& cfg,
                             const core::ChunkState& chunk,
                             std::string_view context = {});

/// `theta-structure` + `theta-matches-z`: the chunk's θ CSR is structurally
/// valid and every row equals the histogram of its document's assignments.
void CheckThetaMatchesZ(const core::CuldaConfig& cfg,
                        const core::ChunkState& chunk,
                        std::string_view context = {});

/// `nk-matches-phi`: n_k = Σ_v φ_kv for every topic.
void CheckNkMatchesPhi(const core::PhiReplica& replica,
                       std::string_view context = {});

/// `phi-total-tokens`: ΣΣ φ equals `expected_tokens`.
void CheckPhiTotalTokens(const core::PhiReplica& replica,
                         uint64_t expected_tokens,
                         std::string_view context = {});

/// `phi-matches-z`: every φ cell equals the number of tokens of its word
/// currently assigned to its topic, accumulated across `chunks`.
void CheckPhiMatchesZ(std::span<const core::ChunkState> chunks,
                      const core::PhiReplica& replica,
                      std::string_view context = {});

/// `phi-saturation-margin`: no φ cell within `margin` of the 16-bit
/// ceiling. No-op when margin is 0.
void CheckPhiSaturationMargin(const core::PhiReplica& replica,
                              uint32_t margin, std::string_view context = {});

// --- Entry points -----------------------------------------------------------

/// Everything that can be said about one chunk in isolation: layout,
/// assignment range, θ consistency.
void ValidateChunk(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                   const core::ChunkState& chunk,
                   std::string_view context = {});

/// The full invariant inventory over a trainer's state: every chunk, chunk
/// coverage of the corpus, and the model against the corpus and the
/// assignments. `model` must be post-sync (holding the global counts) — the
/// one host φ every device replica stands for. CuldaTrainer::ValidateState()
/// forwards here.
void ValidateModelState(const corpus::Corpus& corpus,
                        const core::CuldaConfig& cfg,
                        std::span<const core::ChunkState> chunks,
                        const core::PhiReplica& model,
                        const ValidateOptions& options = {});

/// `model-consistency` for a gathered/loaded model without its corpus (the
/// serving side: culda_infer --validate): θ structure and positivity, n_k
/// against φ, and α/β-independent sanity of the shapes.
void ValidateServedModel(const core::GatheredModel& model);

}  // namespace culda::validate
