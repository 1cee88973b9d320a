#include "core/trainer.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "core/hyperopt.hpp"
#include "corpus/chunking.hpp"
#include "obs/obs.hpp"
#include "util/io.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "validate/invariants.hpp"

namespace culda::core {

namespace {

/// Pre-partition estimate of a chunk's device footprint (Section 5.1's
/// capacity check runs before any chunk is built).
uint64_t EstimateChunkBytes(uint64_t tokens, uint64_t docs,
                            uint64_t vocab_size, const CuldaConfig& cfg) {
  const uint64_t per_token = 4 /*token_doc*/ + 4 /*token_global*/ +
                             4 /*doc_map*/ + 2 /*z*/ +
                             cfg.theta_index_bytes() +
                             4 /*θ value, worst case nnz = tokens*/;
  return tokens * per_token + (docs + 1) * 16 /*doc offsets ×2*/ +
         (vocab_size + 1) * 8 /*word offsets*/;
}

uint64_t PhiFootprintBytes(const CuldaConfig& cfg, uint64_t vocab_size) {
  return static_cast<uint64_t>(cfg.num_topics) * vocab_size *
             cfg.phi_count_bytes() +
         static_cast<uint64_t>(cfg.num_topics) * 4;
}

/// Per-device partial of one step, filled inside the device-parallel region
/// and reduced into IterationStats in fixed device order afterwards, so the
/// float sums never depend on thread interleaving.
struct alignas(64) DevicePartial {
  double sampling_s = 0;
  double update_phi_s = 0;
  double update_theta_s = 0;
};

}  // namespace

CuldaTrainer::CuldaTrainer(const corpus::Corpus& corpus, CuldaConfig cfg,
                           TrainerOptions opts)
    : corpus_(&corpus),
      cfg_(cfg),
      opts_(std::move(opts)),
      group_(opts_.gpus, opts_.peer_link, opts_.pool) {
  cfg_.Validate();
  ChooseM();
  state_ = TrainingState::ByDocuments(
      corpus, cfg_, m_ * static_cast<uint32_t>(group_.size()), opts_.pool);
  ReserveFootprints();
  RebuildCountsFromZ();

  // Iteration timing starts now; setup (preprocessing + initial counts) is
  // excluded, as in the paper's per-iteration measurements.
  group_.ResetTime();
  for (size_t g = 0; g < group_.size(); ++g) {
    group_.device(g).ResetProfile();
  }
  last_transfer_s_.assign(group_.size(), 0.0);
}

std::string CuldaTrainer::name() const {
  const std::string gpu = group_.device(0).spec().name;
  return "CuLDA/" +
         (group_.size() > 1 ? std::to_string(group_.size()) + "x" + gpu : gpu);
}

void CuldaTrainer::ChooseM() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  const uint64_t phi_bytes =
      2 * PhiFootprintBytes(cfg_, corpus_->vocab_size());
  // All devices in a group are identical in the paper's platforms; use the
  // smallest capacity to be safe with heterogeneous specs.
  uint64_t capacity = group_.device(0).spec().memory_bytes;
  for (size_t g = 1; g < group_.size(); ++g) {
    capacity = std::min(capacity, group_.device(g).spec().memory_bytes);
  }
  CULDA_CHECK_MSG(phi_bytes < capacity,
                  "φ model alone exceeds device memory; reduce K or V");

  if (opts_.chunks_per_gpu > 0) {
    m_ = opts_.chunks_per_gpu;
    return;
  }
  for (uint32_t m = 1; m <= 4096; ++m) {
    const uint32_t c = m * g_count;
    const uint64_t chunk = EstimateChunkBytes(
        corpus_->num_tokens() / c + 1, corpus_->num_docs() / c + 1,
        corpus_->vocab_size(), cfg_);
    // M = 1 keeps one resident chunk; M > 1 needs two (double buffering).
    const uint64_t resident = (m == 1 ? 1 : 2) * chunk + phi_bytes;
    if (resident <= capacity) {
      m_ = m;
      return;
    }
  }
  CULDA_CHECK_MSG(false, "no chunk size fits device memory");
}

void CuldaTrainer::ReserveFootprints() {
  // Charge resident footprints against device capacity. WS1 keeps all of a
  // GPU's chunks resident; WS2 keeps two chunk slots (double buffer). Every
  // device holds a double-buffered φ (read replica + accumulator), even
  // though the host keeps one of each for all of them.
  footprints_.clear();
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    footprints_.push_back(dev.Reserve(
        2 * PhiFootprintBytes(cfg_, corpus_->vocab_size()), "phi_replica"));
    if (m_ == 1) {
      footprints_.push_back(
          dev.Reserve(state_.chunks[g].DeviceBytes(cfg_), "chunk"));
    } else {
      uint64_t max_chunk = 0;
      for (uint32_t m = 0; m < m_; ++m) {
        max_chunk = std::max(max_chunk,
                             state_.chunks[m * g_count + g].DeviceBytes(cfg_));
      }
      footprints_.push_back(dev.Reserve(2 * max_chunk, "chunk_double_buffer"));
    }
  }
}

void CuldaTrainer::RebuildCountsFromZ() {
  CULDA_OBS_SPAN("train/rebuild_counts");
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  // Counts from the current assignment: θ per chunk, φ from every device
  // into the one host model. Each device touches only its own chunks, and
  // its φ adds are atomic, so the rebuild runs device-parallel up to the φ
  // sync point, which then has nothing left to add. The model is already
  // zero: freshly built, or cleared by TrainingState::ImportAssignments.
  ForEachCell(opts_.pool, group_.size(), [&](size_t g) {
    gpusim::Device& dev = group_.device(g);
    BillZeroPhiKernel(dev, cfg_, state_.model);
    for (uint32_t m = 0; m < m_; ++m) {
      ChunkState& chunk = state_.chunks[m * g_count + g];
      RunUpdatePhiKernel(dev, cfg_, chunk, state_.model);
      RunUpdateThetaKernel(dev, cfg_, chunk);
    }
  });
  BillSynchronizePhi(group_, cfg_, state_.model, opts_.sync_mode);
  ComputeNk();
  group_.Barrier();
  // Covers every path that rewrites the counts wholesale: construction,
  // checkpoint restore, and ImportAssignments.
  CULDA_VALIDATE_HOOK(if (opts_.validate) ValidateState());
}

uint64_t CuldaTrainer::ChunkUploadBytes(const ChunkState& chunk) const {
  return chunk.layout.DeviceBytes() + chunk.z.size() * sizeof(uint16_t) +
         chunk.theta.nnz() * (cfg_.theta_index_bytes() + 4) +
         (chunk.num_docs() + 1) * 8;
}

IterationStats CuldaTrainer::Step() {
  CULDA_OBS_SPAN("train/step");
  CULDA_OBS_TIMED("train.step_wall_s");
  IterationStats stats;
  stats.iteration = iteration_;
  const double t0 = group_.Now();
  Stopwatch wall;

  if (m_ == 1) {
    StepWs1(stats);
  } else {
    StepWs2(stats);
  }
  // Post-sampling/θ-update, pre-sync: each chunk's z and θ must already
  // agree (φ is mid-flight in the accumulator, so only per-chunk checks
  // apply here).
  CULDA_VALIDATE_HOOK(if (opts_.validate) {
    for (size_t c = 0; c < state_.chunks.size(); ++c) {
      validate::ValidateChunk(*corpus_, cfg_, state_.chunks[c],
                              "chunk " + std::to_string(c));
    }
  });
  SyncAndFinishIteration(stats);
  // Post-sync: the model holds the global counts again, so the full
  // inventory (φ vs z, saturation margin) applies.
  CULDA_VALIDATE_HOOK(if (opts_.validate) ValidateState());

  stats.sim_seconds = group_.Now() - t0;
  stats.wall_seconds = wall.Seconds();
  stats.theta_nnz = state_.ThetaNnz();
  SetThroughput(stats, corpus_->num_tokens());
  for (size_t g = 0; g < group_.size(); ++g) {
    const double cur = group_.device(g).transfer_seconds();
    stats.transfer_s += cur - last_transfer_s_[g];
    last_transfer_s_[g] = cur;
  }
  CULDA_OBS_COUNT("train.iterations", 1);
  CULDA_OBS_COUNT("train.tokens_sampled", corpus_->num_tokens());
  CULDA_OBS_GAUGE_SET("train.theta_nnz", stats.theta_nnz);
  CULDA_OBS_GAUGE_SET("train.wall_tokens_per_sec",
                      stats.wall_tokens_per_sec);
  ++iteration_;
  // Heartbeat: the live exporter publishes this gauge so an external
  // watcher can tell a long run is advancing, and the flight-recorder
  // event leaves a step-boundary trail in a crash dump.
  CULDA_OBS_GAUGE_SET("train.heartbeat.iteration",
                      static_cast<double>(iteration_));
  CULDA_OBS_EVENT("train/step");
  if (opts_.hyperopt_interval > 0 &&
      iteration_ % opts_.hyperopt_interval == 0) {
    const GatheredModel model = Gather();
    cfg_.alpha = OptimizeAlpha(model, cfg_.EffectiveAlpha()).value;
    cfg_.beta = OptimizeBeta(model, cfg_.beta).value;
  }
  modeled_seconds_ += stats.sim_seconds;
  history_.push_back(stats);
  return stats;
}

void CuldaTrainer::StepWs1(IterationStats& stats) {
  CULDA_OBS_SPAN("train/ws1");
  CULDA_OBS_TIMED("train.schedule_wall_s");
  std::vector<DevicePartial> partials(group_.size());
  const SamplingPass pass = SampleAllChunks();
  // Zeroed once for every device; each device still bills its zero_phi.
  state_.accum.Clear();
  ForEachCell(opts_.pool, group_.size(), [&](size_t g) {
    CULDA_OBS_SPAN("train/ws1 gpu" + std::to_string(g));
    DevicePartial& part = partials[g];
    gpusim::Device& dev = group_.device(g);
    ChunkState& chunk = state_.chunks[g];
    gpusim::Stream& compute = dev.stream(0);

    const auto sampling =
        BillSamplingKernel(dev, cfg_, chunk, pass.chunks[g], &compute);
    part.sampling_s += sampling.time.total_s;

    // φ first, so its sync can start while θ updates (Section 6.2). New
    // counts accumulate into the double buffer; the read model stays
    // intact for any chunk still sampling.
    part.update_phi_s +=
        BillZeroPhiKernel(dev, cfg_, state_.accum, &compute).time.total_s;
    part.update_phi_s +=
        RunUpdatePhiKernel(dev, cfg_, chunk, state_.accum, &compute)
            .time.total_s;

    gpusim::Stream& theta_stream =
        opts_.overlap_theta_with_sync ? dev.stream(1) : compute;
    theta_stream.WaitUntil(sampling.end_s);
    part.update_theta_s +=
        RunUpdateThetaKernel(dev, cfg_, chunk, &theta_stream).time.total_s;
  });
  for (const DevicePartial& part : partials) {
    stats.sampling_s += part.sampling_s;
    stats.update_phi_s += part.update_phi_s;
    stats.update_theta_s += part.update_theta_s;
  }
}

void CuldaTrainer::StepWs2(IterationStats& stats) {
  CULDA_OBS_SPAN("train/ws2");
  CULDA_OBS_TIMED("train.schedule_wall_s");
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  std::vector<DevicePartial> partials(group_.size());
  const SamplingPass pass = SampleAllChunks();
  // Zeroed once for every device; each device still bills its zero_phi.
  state_.accum.Clear();
  ForEachCell(opts_.pool, group_.size(), [&](size_t g) {
    CULDA_OBS_SPAN("train/ws2 gpu" + std::to_string(g));
    DevicePartial& part = partials[g];
    gpusim::Device& dev = group_.device(g);
    gpusim::Stream& compute = dev.stream(0);
    // PCIe has independent DMA engines per direction: uploads ride stream 1,
    // downloads stream 2, so the θ write-back of chunk m never stalls the
    // upload of chunk m+1.
    gpusim::Stream& copy_up =
        opts_.overlap_transfers ? dev.stream(1) : compute;
    gpusim::Stream& copy_down =
        opts_.overlap_transfers ? dev.stream(2) : compute;

    part.update_phi_s +=
        BillZeroPhiKernel(dev, cfg_, state_.accum, &compute).time.total_s;

    for (uint32_t m = 0; m < m_; ++m) {
      const size_t c = m * g_count + g;
      ChunkState& chunk = state_.chunks[c];
      // Upload chunk m (tokens + z + θ). On the copy stream this overlaps
      // the previous chunk's compute — the Section 5.1 pipeline.
      const double up_done =
          dev.RecordTransfer(ChunkUploadBytes(chunk), "h2d", &copy_up);
      compute.WaitUntil(up_done);

      const auto sampling =
          BillSamplingKernel(dev, cfg_, chunk, pass.chunks[c], &compute);
      part.sampling_s += sampling.time.total_s;
      part.update_phi_s +=
          RunUpdatePhiKernel(dev, cfg_, chunk, state_.accum, &compute)
              .time.total_s;
      part.update_theta_s +=
          RunUpdateThetaKernel(dev, cfg_, chunk, &compute).time.total_s;

      // θ travels back on the download stream once the update finished.
      copy_down.WaitUntil(compute.ready_time());
      dev.RecordTransfer(
          chunk.theta.nnz() * (cfg_.theta_index_bytes() + 4) +
              (chunk.num_docs() + 1) * 8,
          "d2h", &copy_down);
    }
    compute.WaitUntil(copy_down.ready_time());
    compute.WaitUntil(copy_up.ready_time());
  });
  for (const DevicePartial& part : partials) {
    stats.sampling_s += part.sampling_s;
    stats.update_phi_s += part.update_phi_s;
    stats.update_theta_s += part.update_theta_s;
  }
}

SamplingPass CuldaTrainer::SampleAllChunks() {
  CULDA_OBS_NAMED_SPAN(span, "train/sampling");
  // Chunk c lives on GPU c mod G under both schedules.
  std::vector<const gpusim::Device*> billers(state_.chunks.size());
  for (size_t c = 0; c < state_.chunks.size(); ++c) {
    billers[c] = &group_.device(c % group_.size());
  }
  SamplingPass pass =
      SampleChunks(cfg_, state_.chunks, billers, state_.model, iteration_ + 1,
                   opts_.pool, opts_.sampler, opts_.mh_cycles);
  CULDA_OBS_SPAN_ARG(span, "blocks", pass.blocks);
  CULDA_OBS_SPAN_ARG(span, "word_tables", pass.word_tables);
  if (opts_.collect_step_counters) {
    for (const ChunkSamplingTally& tally : pass.chunks) steps_ += tally.steps;
  }
  return pass;
}

void CuldaTrainer::SyncAndFinishIteration(IterationStats& stats) {
  CULDA_OBS_TIMED("train.sync_wall_s");
  {
    CULDA_OBS_SPAN("train/phi_sync");
    // Every device added into the one accumulator, so it already holds the
    // global sum; what is left is to bill the sync of G replicas.
    const auto sync =
        BillSynchronizePhi(group_, cfg_, state_.accum, opts_.sync_mode);
    stats.sync_s += sync.seconds;
  }
  // The synchronized accumulator becomes the next iteration's read model.
  std::swap(state_.model, state_.accum);
  CULDA_OBS_SPAN("train/compute_nk");
  CULDA_OBS_TIMED("train.nk_wall_s");
  for (const double s : ComputeNk()) stats.update_phi_s += s;
  group_.Barrier();
}

std::vector<double> CuldaTrainer::ComputeNk() {
  state_.model.RecomputeTotals(opts_.pool);
  std::vector<double> nk_s(group_.size(), 0.0);
  ForEachCell(opts_.pool, group_.size(), [&](size_t g) {
    nk_s[g] =
        BillComputeNkKernel(group_.device(g), cfg_, state_.model).time.total_s;
  });
  return nk_s;
}

void CuldaTrainer::ValidateState() const {
  validate::ValidateModelState(*corpus_, cfg_, state_.chunks, state_.model);
}

void CuldaTrainer::ImportAssignments(std::span<const uint16_t> z_doc_major) {
  state_.ImportAssignments(z_doc_major);
  RebuildCountsFromZ();
}

namespace {
constexpr char kCkptMagic[8] = {'C', 'U', 'L', 'D', 'A', 'C', 'K', 'P'};
// v1 was the pre-hardening layout without the length/CRC frame; rejected
// explicitly (a checkpoint is cheap to regenerate, unlike a guessed parse).
constexpr uint32_t kCkptVersion = 2;
}  // namespace

void CuldaTrainer::SaveCheckpoint(std::ostream& out) const {
  CULDA_OBS_SPAN("ckpt/save");
  CULDA_OBS_TIMED("ckpt.save_s");
  CULDA_OBS_COUNT("ckpt.saves", 1);
  io::ContainerWriter w;
  w.WritePod(cfg_.num_topics);
  w.WritePod(cfg_.seed);
  w.WritePod(corpus_->num_tokens());
  w.WritePod(static_cast<uint64_t>(corpus_->num_docs()));
  w.WritePod(corpus_->vocab_size());
  w.WritePod(iteration_);
  w.WritePod(static_cast<uint32_t>(state_.chunks.size()));
  for (const auto& chunk : state_.chunks) {
    w.WritePod(static_cast<uint64_t>(chunk.z.size()));
    w.WriteSpan(chunk.z);
  }
  w.Finish(out, kCkptMagic, kCkptVersion);
  CULDA_CHECK_MSG(out.good(), "failed writing checkpoint");
}

void CuldaTrainer::RestoreCheckpoint(std::istream& in) {
  CULDA_OBS_SPAN("ckpt/restore");
  CULDA_OBS_TIMED("ckpt.restore_s");
  CULDA_OBS_COUNT("ckpt.restores", 1);
  // Version, length, and CRC are verified before any field is parsed
  // (bounded reads; a hostile header cannot OOM), and the trainer is mutated
  // only after the whole payload validates — a failed restore leaves it
  // fully usable.
  const std::string payload =
      io::ReadContainer(in, kCkptMagic, kCkptVersion, "checkpoint");
  io::ByteReader r(payload, "checkpoint");

  CULDA_CHECK_MSG(r.ReadPod<uint32_t>() == cfg_.num_topics,
                  "checkpoint K differs from trainer config");
  CULDA_CHECK_MSG(r.ReadPod<uint64_t>() == cfg_.seed,
                  "checkpoint seed differs from trainer config");
  CULDA_CHECK_MSG(r.ReadPod<uint64_t>() == corpus_->num_tokens(),
                  "checkpoint was taken on a different corpus (tokens)");
  CULDA_CHECK_MSG(r.ReadPod<uint64_t>() == corpus_->num_docs(),
                  "checkpoint was taken on a different corpus (docs)");
  CULDA_CHECK_MSG(r.ReadPod<uint32_t>() == corpus_->vocab_size(),
                  "checkpoint was taken on a different corpus (vocab)");
  const uint32_t iteration = r.ReadPod<uint32_t>();
  const uint32_t num_chunks = r.ReadPod<uint32_t>();
  // Each chunk contributes at least its u64 length to the payload, so the
  // remaining bytes bound the plausible chunk count before PartitionByTokens
  // allocates num_chunks specs.
  CULDA_CHECK_MSG(num_chunks >= 1 &&
                      num_chunks <= r.remaining() / sizeof(uint64_t) &&
                      num_chunks <= corpus_->num_docs(),
                  "checkpoint chunk count " << num_chunks << " implausible");

  // The checkpoint's chunking may differ (different G or M): read all z in
  // checkpoint-chunk order into a corpus-global array keyed by token id,
  // then import that into this trainer's chunks. Chunk specs are contiguous in
  // document (hence token) order in both layouts, but the *word-first*
  // permutation inside differs, so routing via token_global is required.
  std::vector<uint16_t> z_global(corpus_->num_tokens());
  {
    // SaveCheckpoint stores z in the word-first order of *its* chunking;
    // chunking is a pure function of (corpus, num_chunks), so re-deriving
    // the writer's layouts recovers the token_global routing even when this
    // trainer uses a different G or M. One buffer, bounds-checked before it
    // grows, receives each chunk's z straight from the payload.
    const auto specs = corpus::PartitionByTokens(*corpus_, num_chunks);
    std::vector<uint16_t> buf;
    uint64_t covered = 0;
    for (uint32_t c_idx = 0; c_idx < num_chunks; ++c_idx) {
      const uint64_t n = r.ReadPod<uint64_t>();
      CULDA_CHECK_MSG(n <= corpus_->num_tokens() - covered,
                      "checkpoint declares more tokens than the corpus");
      r.RequireElements<uint16_t>(n);
      buf.resize(static_cast<size_t>(n));
      r.ReadInto(std::span<uint16_t>(buf));
      const auto layout =
          corpus::BuildWordFirstChunk(*corpus_, specs[c_idx]);
      CULDA_CHECK_MSG(layout.num_tokens() == n,
                      "checkpoint chunking mismatch");
      for (const uint16_t z : buf) {
        CULDA_CHECK_MSG(z < cfg_.num_topics,
                        "checkpoint topic id " << z << " out of range");
      }
      ScatterToCorpusOrder(layout, buf, z_global);
      covered += n;
    }
    CULDA_CHECK_MSG(covered == corpus_->num_tokens(),
                    "checkpoint does not cover the corpus");
    r.ExpectEnd();
  }

  state_.ImportAssignments(z_global);
  iteration_ = iteration;
  RebuildCountsFromZ();
}

void CuldaTrainer::SaveCheckpointToFile(const std::string& path) const {
  io::AtomicWriteFile(
      path, [&](std::ostream& out) { SaveCheckpoint(out); },
      /*keep_previous=*/true);
}

std::string CuldaTrainer::RestoreCheckpointFromFile(const std::string& path) {
  std::string first_error;
  if (io::FileExists(path)) {
    try {
      std::ifstream in(path, std::ios::binary);
      CULDA_CHECK_MSG(in.good(), "cannot open checkpoint '" << path << "'");
      RestoreCheckpoint(in);
      return path;
    } catch (const Error& e) {
      first_error = e.what();
    }
  } else {
    first_error = "checkpoint '" + path + "' does not exist";
  }

  const std::string prev = path + ".prev";
  CULDA_CHECK_MSG(io::FileExists(prev),
                  "cannot resume: " << first_error
                                    << " (and no last-good checkpoint '"
                                    << prev << "' to fall back to)");
  CULDA_LOG(Warn) << "checkpoint '" << path << "' unusable (" << first_error
                  << "); falling back to last-good '" << prev << "'";
  std::ifstream in(prev, std::ios::binary);
  CULDA_CHECK_MSG(in.good(), "cannot open checkpoint '" << prev << "'");
  RestoreCheckpoint(in);
  return prev;
}

}  // namespace culda::core
