// CuldaTrainer — the top-level CuLDA_CGS training loop (Algorithm 1).
//
// Orchestrates: corpus partitioning (C = M × G token-balanced chunks),
// per-GPU sampling/update kernels, the φ reduce+broadcast sync, and the two
// workload schedules of Section 5.1:
//
//   WorkSchedule1 (M = 1): chunks live on their GPU for the whole training;
//     data moves host↔device only at the start and end.
//   WorkSchedule2 (M > 1): chunks stream through the GPUs every iteration,
//     with transfers double-buffered against compute on a second stream.
//
// M is chosen automatically from the device memory capacity exactly as the
// paper prescribes: M = 1 if one chunk (plus the model) fits, otherwise the
// smallest M such that two chunks fit (double buffering).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/model.hpp"
#include "core/sync.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/multi_gpu.hpp"
#include "util/thread_pool.hpp"
#include "validate/validate.hpp"

namespace culda::core {

struct TrainerOptions {
  std::vector<gpusim::DeviceSpec> gpus = {gpusim::V100Volta()};
  gpusim::LinkSpec peer_link = gpusim::Pcie3x16();
  /// Chunks per GPU (the paper's M); 0 = choose automatically from device
  /// memory capacity (Section 5.1).
  uint32_t chunks_per_gpu = 0;
  SyncMode sync_mode = SyncMode::kGpuTree;
  /// Per-token sampling strategy: the exact index-tree kernel (Algorithm 2)
  /// or the O(1) alias/MH tier (docs/samplers.md). Both are deterministic in
  /// (seed, iteration, global token) at any GPU/chunk/worker count; kAliasMH
  /// is statistically — not bitwise — equivalent and is certified by the
  /// count-marginal conformance and convergence-parity harnesses.
  TrainSampler sampler = TrainSampler::kTree;
  /// kAliasMH only: MH proposal pairs per token per iteration.
  uint32_t mh_cycles = 1;
  /// WS2 only: overlap chunk transfers with compute via a second stream
  /// (off = the A5 ablation's serial variant).
  bool overlap_transfers = true;
  /// Run the θ update on a second stream so it overlaps the φ sync
  /// (Section 6.2's kernel ordering); off = serialize, for the ablation.
  bool overlap_theta_with_sync = true;
  /// Optional worker pool, shared by two levels of host parallelism: the
  /// trainer runs independent simulated GPUs concurrently between sync
  /// points, and each device runs its kernel's thread blocks on the same
  /// pool (ThreadPool's parallel-for is nested-safe). Wall-clock only —
  /// simulated times and model state are bit-identical with or without it.
  ThreadPool* pool = nullptr;
  /// Collect per-step traffic tallies (Table 1); small overhead.
  bool collect_step_counters = false;
  /// Re-estimate α and β from the counts every N iterations via Minka's
  /// fixed point (0 = off, the paper's fixed 50/K / 0.01 setting). An
  /// extension over the paper; see core/hyperopt.hpp.
  uint32_t hyperopt_interval = 0;
  /// Run the full invariant inventory (src/validate) after count rebuilds,
  /// per-chunk after every sampling/θ-update step, and after every φ sync.
  /// Only honored in a -DCULDA_VALIDATE=ON build — the hook sites do not
  /// exist otherwise — hence the default: on exactly when they are
  /// compiled. ValidateState() below works in every build regardless.
  bool validate = culda::validate::kHooksCompiled;
  /// Replicate read-mostly inference state per socket domain of `pool` in
  /// the engines built over this trainer's gathered φ (held-out scoring,
  /// SnapshotFromTrainer); see InferenceOptions::numa_replicate. Exact
  /// copies — every result stays bit-identical. No-op on single-socket
  /// topologies.
  bool numa_replicate = false;
};

/// Timing record of one training iteration, in simulated seconds. The
/// per-kernel components are summed across devices (they overlap in group
/// time, so they are meaningful as a breakdown, not as a sum).
struct IterationStats {
  uint32_t iteration = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  double tokens_per_sec = 0;       ///< corpus tokens / sim_seconds
  double wall_tokens_per_sec = 0;  ///< corpus tokens / wall_seconds (host)
  double sampling_s = 0;
  double update_theta_s = 0;
  double update_phi_s = 0;
  double sync_s = 0;
  double transfer_s = 0;
  /// θ sparsity after this iteration: total non-zeros across all chunks.
  /// Falling nnz is what drives the Figure 7 throughput ramp.
  uint64_t theta_nnz = 0;
};

class CuldaTrainer {
 public:
  /// `corpus` must outlive the trainer. Builds chunk layouts, initializes
  /// topics uniformly at random (deterministic in cfg.seed), and constructs
  /// the initial θ/φ counts; the simulated clock starts at zero *after*
  /// initialization, matching how the paper times iterations.
  CuldaTrainer(const corpus::Corpus& corpus, CuldaConfig cfg,
               TrainerOptions opts);

  uint32_t num_gpus() const {
    return static_cast<uint32_t>(group_.size());
  }
  uint32_t chunks_per_gpu() const { return m_; }
  uint32_t num_chunks() const {
    return static_cast<uint32_t>(chunks_.size());
  }
  uint64_t num_tokens() const { return corpus_->num_tokens(); }
  const CuldaConfig& config() const { return cfg_; }
  const TrainerOptions& options() const { return opts_; }
  gpusim::DeviceGroup& group() { return group_; }

  /// Runs one full training iteration (sampling + model update + φ sync).
  IterationStats Step();

  /// Runs `iterations` steps; returns their stats (also kept in history()).
  std::vector<IterationStats> Train(uint32_t iterations);

  const std::vector<IterationStats>& history() const { return history_; }

  /// Cumulative per-step traffic tallies (when collect_step_counters).
  const SamplingStepCounters& step_counters() const { return steps_; }

  /// Collects the trained model back to the host (Algorithm 1 lines 17–20).
  GatheredModel Gather() const;

  /// Convenience: gather + evaluate the Figure 8 metric.
  double LogLikelihoodPerToken() const;

  /// Current iteration count (number of completed Step() calls).
  uint32_t iteration() const { return iteration_; }

  /// Checks the full invariant inventory over the current state (every
  /// chunk's layout/z/θ, φ against z and the corpus);
  /// throws validate::ValidationError naming the first violated invariant.
  /// Available in every build; the TrainerOptions::validate hooks call this
  /// automatically in -DCULDA_VALIDATE=ON builds.
  void ValidateState() const;

  // --- Checkpointing --------------------------------------------------------
  // A checkpoint is the per-token topic assignment plus the iteration
  // counter — everything else (θ, φ, n_k) is recomputed, and the Philox
  // streams are keyed by (seed, iteration, token), so resuming a checkpoint
  // continues bit-identically to an uninterrupted run. On disk it is a
  // util/io container (magic + version + length + CRC32 trailer); see
  // docs/persistence.md.
  void SaveCheckpoint(std::ostream& out) const;
  /// Restores into a trainer built over the same corpus/config/topology;
  /// throws culda::Error on any mismatch or corruption. The restore is
  /// transactional: on failure the trainer's state is unchanged and it
  /// remains fully usable.
  void RestoreCheckpoint(std::istream& in);
  /// Atomic checkpoint-to-file: writes `path.tmp`, fsyncs, rotates any
  /// existing `path` to `path.prev`, then renames — a crash at any point
  /// leaves a loadable checkpoint under `path` or `path.prev`.
  void SaveCheckpointToFile(const std::string& path) const;
  /// Restores from `path`, degrading gracefully to the retained last-good
  /// `path.prev` (with a logged warning) when `path` is missing, torn, or
  /// corrupt. Returns the path actually restored; throws culda::Error when
  /// neither file is usable.
  std::string RestoreCheckpointFromFile(const std::string& path);

  /// Topic assignments in corpus document-major order (the inverse of the
  /// word-first permutation). Together with ImportAssignments this lets a
  /// caller move training state across *growing* corpora (see
  /// core::OnlineTrainer): token ids of existing documents are stable when
  /// documents are appended.
  std::vector<uint16_t> ExportAssignments() const;
  /// Replaces all topic assignments (document-major, length = corpus
  /// tokens, values < K) and rebuilds θ/φ/n_k. Does not change iteration().
  void ImportAssignments(std::span<const uint16_t> z_doc_major);

 private:
  void ChooseM();
  void BuildChunks();
  void InitializeModel();
  /// Runs fn(g) for every device — concurrently on opts_.pool when one is
  /// set (simulated GPUs are independent between sync points), sequentially
  /// otherwise. Callers keep per-device partials and reduce them in fixed
  /// device order after this returns, which is what keeps float sums (and
  /// thus reported stats) independent of the execution interleaving.
  void ForEachDevice(const std::function<void(size_t)>& fn);
  /// Rebuilds θ/φ/n_k from the current z (used at init and restore).
  void RebuildCountsFromZ();
  /// Samples every chunk against model_ in one word-major pass
  /// (SampleChunks), before the device-parallel region, and adds its step
  /// tallies to steps_ when collecting; each device then bills its chunks
  /// from the pass's tallies.
  SamplingPass SampleAllChunks();
  void StepWs1(IterationStats& stats);
  void StepWs2(IterationStats& stats);
  void SyncAndFinishIteration(IterationStats& stats);
  /// Computes model_'s n_k once on the host and bills the compute_nk kernel
  /// on every device; returns the billed seconds per device.
  std::vector<double> ComputeNk();
  uint64_t ChunkUploadBytes(const ChunkState& chunk) const;

  const corpus::Corpus* corpus_;
  CuldaConfig cfg_;
  TrainerOptions opts_;
  gpusim::DeviceGroup group_;
  uint32_t m_ = 1;  ///< chunks per GPU
  std::vector<ChunkState> chunks_;          ///< C = M × G entries
  /// Double-buffered φ, one host copy standing for every GPU's replica:
  /// `model_` is the synchronized model every sampling kernel reads
  /// (iteration t−1); `accum_` collects every device's new counts during
  /// iteration t (update_phi's adds are atomic, so concurrent devices share
  /// it) and becomes `model_` after the sync. After a sync all G device
  /// replicas would hold the same bits, so the host keeps one; the kernels,
  /// the sync and the memory footprint are still billed per device
  /// (docs/simulator.md, "Functional vs billed work"). (The paper does not
  /// spell out the double buffer, but reading and rebuilding φ in the same
  /// buffer while chunks stream through the GPU cannot work.)
  PhiReplica model_;
  PhiReplica accum_;
  /// Capacity charges representing resident chunk + model footprints.
  std::vector<gpusim::DeviceReservation> footprints_;
  std::vector<IterationStats> history_;
  SamplingStepCounters steps_;
  uint32_t iteration_ = 0;
  std::vector<double> last_transfer_s_;  ///< per-device transfer-time marks
};

}  // namespace culda::core
