// A simulated GPU (or CPU) processor: memory ledger, streams with a
// simulated timeline, kernel launch, and a per-kernel profile.
//
// Functional semantics are exact — kernels really execute and mutate device
// buffers. Time is simulated: every launch and copy advances the issuing
// stream's clock by the cost-model time, so overlap (WorkSchedule2's
// transfer/compute pipelining, φ-sync overlapping the θ update) falls out of
// ordinary stream arithmetic just as it does with CUDA streams.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"
#include "util/thread_pool.hpp"

namespace culda::gpusim {

class Device;

/// A recorded point on a stream's timeline (cudaEvent_t analogue).
struct Event {
  double timestamp = 0;
  int stream_id = 0;
};

/// A CUDA-style stream: an in-order queue represented by its ready time.
class Stream {
 public:
  Stream(Device* device, int id) : device_(device), id_(id) {}

  double ready_time() const { return ready_; }
  int id() const { return id_; }
  Device& device() { return *device_; }

  /// Records the stream's current position (cudaEventRecord).
  Event Record() const { return {ready_, id_}; }

  /// Makes this stream wait for an event (a simulated timestamp), i.e.
  /// cudaStreamWaitEvent.
  void WaitUntil(double t) { ready_ = std::max(ready_, t); }
  void Wait(const Event& e) { WaitUntil(e.timestamp); }

 private:
  friend class Device;
  Device* device_;
  int id_;
  double ready_ = 0;
};

/// Result of one kernel launch (or, in the trace log, one transfer).
struct KernelRecord {
  std::string name;
  KernelCounters counters;
  KernelTimeBreakdown time;
  double start_s = 0;
  double end_s = 0;
  int stream_id = 0;
};

/// Aggregate statistics per kernel name (feeds the Table 5 breakdown).
struct KernelProfile {
  uint64_t launches = 0;
  double total_s = 0;
  KernelCounters counters;
};

class Device : public MemoryLedger {
 public:
  using KernelBody = std::function<void(BlockContext&)>;

  /// `pool` may be null (blocks run sequentially on the caller). The pool is
  /// borrowed, not owned, so several devices can share one.
  Device(DeviceSpec spec, int device_id, ThreadPool* pool = nullptr);

  const DeviceSpec& spec() const { return spec_; }
  int id() const { return device_id_; }
  const CostModel& cost_model() const { return cost_; }

  // --- Memory --------------------------------------------------------------
  template <typename T>
  DeviceBuffer<T> Alloc(size_t count, const std::string& tag) {
    return DeviceBuffer<T>(this, count, tag);
  }
  /// Charges `bytes` of capacity without host backing store, for device
  /// footprints whose contents the host keeps elsewhere.
  DeviceReservation Reserve(uint64_t bytes, const std::string& tag) {
    return DeviceReservation(this, bytes, tag);
  }
  uint64_t allocated_bytes() const { return allocated_bytes_; }
  uint64_t free_bytes() const { return spec_.memory_bytes - allocated_bytes_; }

  void Charge(uint64_t bytes, const std::string& tag) override;
  void Release(uint64_t bytes) override;

  // --- Streams & events ----------------------------------------------------
  /// Returns stream `i`, creating streams up to `i` lazily. Stream 0 is the
  /// default stream.
  Stream& stream(int i = 0);
  /// Host-side sync: returns the time at which all streams are idle and
  /// aligns every stream to it.
  double Synchronize();
  /// Latest completion time across streams without blocking them.
  double Now() const;
  /// Rewinds all stream clocks to zero (used to exclude setup work from
  /// reported iteration timings).
  void ResetTime();

  // --- Execution -----------------------------------------------------------
  /// Launches a kernel on `stream`: runs `body` once per block (possibly in
  /// parallel across pool workers), bills the aggregated counters through
  /// the cost model, and advances the stream. Returns the launch record.
  /// A Device is a single-owner object: at most one thread may be inside
  /// Launch (or any stream operation) on a given device at a time — the
  /// trainer's device-level parallelism satisfies this because each
  /// simulated GPU is driven by exactly one task between sync points.
  KernelRecord Launch(const std::string& name, const LaunchConfig& cfg,
                      const KernelBody& body, Stream* stream = nullptr);

  /// The billing tail of Launch: bills a launch of `cfg` whose blocks
  /// already ran elsewhere and summed to `total`, advancing `stream` and
  /// the profile (and trace) exactly as Launch does after running them.
  KernelRecord Bill(const std::string& name, const LaunchConfig& cfg,
                    const KernelCounters& total, Stream* stream = nullptr);

  /// Host→device copy of `count` elements into `dst` (PCIe-billed).
  template <typename T>
  double CopyIn(DeviceBuffer<T>& dst, std::span<const T> src,
                Stream* stream = nullptr) {
    CULDA_CHECK(src.size() <= dst.size());
    std::copy(src.begin(), src.end(), dst.data());
    return RecordTransfer(src.size() * sizeof(T), "h2d", stream);
  }

  /// Device→host copy.
  template <typename T>
  double CopyOut(std::span<T> dst, const DeviceBuffer<T>& src,
                 Stream* stream = nullptr) {
    CULDA_CHECK(src.size() <= dst.size());
    std::copy(src.span().begin(), src.span().end(), dst.begin());
    return RecordTransfer(src.bytes(), "d2h", stream);
  }

  /// Bills a transfer of `bytes` over the host link on `stream` and returns
  /// its completion time. Exposed for copies whose data movement the caller
  /// performs itself (e.g. peer reduce in DeviceGroup bills both ends).
  double RecordTransfer(uint64_t bytes, const std::string& direction,
                        Stream* stream = nullptr);

  /// Host interconnect (PCIe by default; configurable for NVLink systems).
  void set_host_link(LinkSpec link) { host_link_ = link; }
  const LinkSpec& host_link() const { return host_link_; }

  // --- Profiling -----------------------------------------------------------
  const std::map<std::string, KernelProfile>& profile() const {
    return profile_;
  }
  uint64_t transfer_bytes() const { return transfer_bytes_; }
  double transfer_seconds() const { return transfer_seconds_; }
  void ResetProfile();

  /// When enabled, every launch and transfer is appended to trace() — the
  /// input of gpusim::WriteChromeTrace. Off by default (it grows unbounded).
  void set_record_trace(bool on) { record_trace_ = on; }
  const std::vector<KernelRecord>& trace() const { return trace_; }

  /// The pool this device runs its blocks on (may be null).
  ThreadPool* pool() const { return pool_; }

 private:
  void CheckLaunchConfig(const LaunchConfig& cfg) const;
  /// Per-executing-thread scratch for Launch: a reusable shared-memory arena
  /// plus a cache-line-isolated counter accumulator (slot 0 = the launching
  /// thread, slots 1..W = pool workers). Arenas persist across launches so
  /// the hot path never constructs one per block.
  struct alignas(64) WorkerSlot {
    std::unique_ptr<SharedMemory> shared;
    KernelCounters partial;
  };
  WorkerSlot& slot_for_current_thread();

  DeviceSpec spec_;
  int device_id_;
  CostModel cost_;
  ThreadPool* pool_;
  std::vector<WorkerSlot> slots_;
  LinkSpec host_link_;
  uint64_t allocated_bytes_ = 0;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::map<std::string, KernelProfile> profile_;
  uint64_t transfer_bytes_ = 0;
  double transfer_seconds_ = 0;
  bool record_trace_ = false;
  std::vector<KernelRecord> trace_;
};

}  // namespace culda::gpusim
