#include "gpusim/device.hpp"

#include <algorithm>

namespace culda::gpusim {

Device::Device(DeviceSpec spec, int device_id, ThreadPool* pool)
    : spec_(std::move(spec)),
      device_id_(device_id),
      cost_(spec_),
      pool_(pool),
      host_link_(Pcie3x16()) {
  streams_.push_back(std::make_unique<Stream>(this, 0));
  // One scratch slot per thread that can ever execute a block of this
  // device: the launching thread (slot 0) plus every pool worker. Sized up
  // front so concurrent block execution never resizes the vector.
  slots_.resize((pool_ != nullptr ? pool_->worker_count() : 0) + 1);
}

Device::WorkerSlot& Device::slot_for_current_thread() {
  const int worker = pool_ != nullptr ? pool_->current_worker_id() : -1;
  WorkerSlot& slot = slots_[static_cast<size_t>(worker + 1)];
  if (slot.shared == nullptr) {
    slot.shared = std::make_unique<SharedMemory>(spec_.shared_mem_per_block);
  }
  return slot;
}

void Device::Charge(uint64_t bytes, const std::string& tag) {
  CULDA_CHECK_MSG(
      allocated_bytes_ + bytes <= spec_.memory_bytes,
      spec_.name << ": out of device memory allocating " << bytes << "B for '"
                 << tag << "' (" << allocated_bytes_ << "B of "
                 << spec_.memory_bytes << "B in use)");
  allocated_bytes_ += bytes;
}

void Device::Release(uint64_t bytes) {
  CULDA_CHECK(bytes <= allocated_bytes_);
  allocated_bytes_ -= bytes;
}

Stream& Device::stream(int i) {
  CULDA_CHECK(i >= 0);
  while (static_cast<size_t>(i) >= streams_.size()) {
    streams_.push_back(
        std::make_unique<Stream>(this, static_cast<int>(streams_.size())));
  }
  return *streams_[i];
}

double Device::Synchronize() {
  const double t = Now();
  for (auto& s : streams_) s->ready_ = t;
  return t;
}

double Device::Now() const {
  double t = 0;
  for (const auto& s : streams_) t = std::max(t, s->ready_);
  return t;
}

void Device::ResetTime() {
  for (auto& s : streams_) s->ready_ = 0;
}

void Device::CheckLaunchConfig(const LaunchConfig& cfg) const {
  CULDA_CHECK_MSG(cfg.block_dim % kWarpSize == 0,
                  "block_dim must be a multiple of the warp size");
  CULDA_CHECK_MSG(cfg.block_dim <= static_cast<uint32_t>(
                                       spec_.max_threads_per_block),
                  "block_dim " << cfg.block_dim << " exceeds device limit");
  CULDA_CHECK(cfg.grid_dim >= 1);
  CULDA_CHECK_MSG(cfg.mem_derate > 0 && cfg.mem_derate <= 1.0,
                  "mem_derate must be in (0, 1]");
}

KernelRecord Device::Launch(const std::string& name, const LaunchConfig& cfg,
                            const KernelBody& body, Stream* stream) {
  CheckLaunchConfig(cfg);
  KernelCounters total;
  if (pool_ != nullptr && pool_->worker_count() > 0 && cfg.grid_dim > 1) {
    // Each executing thread accumulates into its own cache-line-isolated
    // slot; the slots are merged once per launch, in fixed slot order.
    // KernelCounters is all-integer, so the merge is exact regardless of
    // which thread ran which block.
    for (auto& slot : slots_) slot.partial = KernelCounters{};
    pool_->ParallelFor(cfg.grid_dim, [&](size_t b) {
      WorkerSlot& slot = slot_for_current_thread();
      slot.shared->Reset();
      BlockContext ctx(static_cast<uint32_t>(b), cfg, slot.shared.get());
      body(ctx);
      slot.partial += ctx.counters();
    });
    for (const auto& slot : slots_) total += slot.partial;
  } else {
    WorkerSlot& slot = slot_for_current_thread();
    for (uint32_t b = 0; b < cfg.grid_dim; ++b) {
      slot.shared->Reset();
      BlockContext ctx(b, cfg, slot.shared.get());
      body(ctx);
      total += ctx.counters();
    }
  }
  return Bill(name, cfg, total, stream);
}

KernelRecord Device::Bill(const std::string& name, const LaunchConfig& cfg,
                          const KernelCounters& total, Stream* stream) {
  CheckLaunchConfig(cfg);
  if (stream == nullptr) stream = streams_[0].get();
  KernelRecord rec;
  rec.name = name;
  rec.counters = total;
  rec.time = cost_.KernelTime(total, cfg.mem_derate);
  rec.start_s = stream->ready_;
  rec.end_s = rec.start_s + rec.time.total_s;
  rec.stream_id = stream->id();
  stream->ready_ = rec.end_s;

  KernelProfile& prof = profile_[name];
  prof.launches += 1;
  prof.total_s += rec.time.total_s;
  prof.counters += total;
  if (record_trace_) trace_.push_back(rec);
  return rec;
}

double Device::RecordTransfer(uint64_t bytes, const std::string& direction,
                              Stream* stream) {
  if (stream == nullptr) stream = streams_[0].get();
  const double t = host_link_.TransferSeconds(bytes);
  const double start = stream->ready_;
  stream->ready_ += t;
  transfer_bytes_ += bytes;
  transfer_seconds_ += t;
  KernelProfile& prof = profile_["memcpy_" + direction];
  prof.launches += 1;
  prof.total_s += t;
  if (record_trace_) {
    KernelRecord rec;
    rec.name = "memcpy_" + direction;
    rec.counters.global_read_bytes = bytes;
    rec.start_s = start;
    rec.end_s = stream->ready_;
    rec.stream_id = stream->id();
    trace_.push_back(rec);
  }
  return stream->ready_;
}

void Device::ResetProfile() {
  profile_.clear();
  transfer_bytes_ = 0;
  transfer_seconds_ = 0;
  trace_.clear();
}

}  // namespace culda::gpusim
