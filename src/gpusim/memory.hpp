// Simulated device memory.
//
// A DeviceReservation is a capacity charge against its device's memory
// (DeviceSpec::memory_bytes) and nothing more: it holds no storage. A
// DeviceBuffer<T> is the data-carrying variant, a typed allocation backed by
// host memory (the simulator is functional) that takes its charge through a
// DeviceReservation. Either way, a charge that does not fit behaves like
// cudaMalloc running out of device memory, which is what forces the
// WorkSchedule2 streaming path for corpora that exceed device capacity
// (Section 5.1 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace culda::gpusim {

class Device;

/// Internal bookkeeping interface implemented by Device. Split out so that
/// DeviceBuffer does not need Device's full definition.
class MemoryLedger {
 public:
  virtual ~MemoryLedger() = default;
  virtual void Charge(uint64_t bytes, const std::string& tag) = 0;
  virtual void Release(uint64_t bytes) = 0;
};

/// Move-only owning handle to a charge of `bytes` against a ledger,
/// released on destruction or Free(). Holds no storage, so resident
/// footprints the host keeps elsewhere (or not at all) cost no host memory.
class DeviceReservation {
 public:
  DeviceReservation() = default;

  /// Throws culda::Error, naming `tag`, when the charge does not fit.
  DeviceReservation(MemoryLedger* ledger, uint64_t bytes,
                    const std::string& tag)
      : ledger_(ledger), bytes_(bytes) {
    ledger_->Charge(bytes_, tag);
  }

  ~DeviceReservation() { Free(); }

  DeviceReservation(DeviceReservation&& o) noexcept
      : ledger_(std::exchange(o.ledger_, nullptr)),
        bytes_(std::exchange(o.bytes_, 0)) {}
  DeviceReservation& operator=(DeviceReservation&& o) noexcept {
    if (this != &o) {
      Free();
      ledger_ = std::exchange(o.ledger_, nullptr);
      bytes_ = std::exchange(o.bytes_, 0);
    }
    return *this;
  }
  DeviceReservation(const DeviceReservation&) = delete;
  DeviceReservation& operator=(const DeviceReservation&) = delete;

  uint64_t bytes() const { return bytes_; }

  /// Releases the charge early (idempotent).
  void Free() {
    if (ledger_ != nullptr) ledger_->Release(bytes_);
    ledger_ = nullptr;
    bytes_ = 0;
  }

 private:
  MemoryLedger* ledger_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Move-only owning handle to a simulated device allocation with host
/// backing store. Moving leaves the source empty and uncharged.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(MemoryLedger* ledger, size_t count, const std::string& tag)
      : reservation_(ledger, count * sizeof(T), tag), data_(count) {}

  bool empty() const { return data_.empty(); }
  size_t size() const { return data_.size(); }
  uint64_t bytes() const { return data_.size() * sizeof(T); }

  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  /// Releases the allocation early (idempotent).
  void Free() {
    reservation_.Free();
    data_.clear();
    data_.shrink_to_fit();
  }

 private:
  DeviceReservation reservation_;
  std::vector<T> data_;
};

}  // namespace culda::gpusim
