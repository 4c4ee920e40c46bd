#include "storage/disk_sim.h"

#include <cstring>

#include "util/format.h"

namespace ocb {

const char* IoScopeToString(IoScope scope) {
  switch (scope) {
    case IoScope::kGeneration:
      return "generation";
    case IoScope::kTransaction:
      return "transaction";
    case IoScope::kClustering:
      return "clustering";
    case IoScope::kNumScopes:
      break;
  }
  return "unknown";
}

DiskSim::DiskSim(const StorageOptions& options, SimClock* clock)
    : options_(options), clock_(clock) {}

PageId DiskSim::AllocatePage() {
  auto page = std::make_unique<uint8_t[]>(options_.page_size);
  std::memset(page.get(), 0, options_.page_size);
  WriterMutexLock lock(pages_mu_);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

uint8_t* DiskSim::Charge(PageId page_id, bool write,
                         uint64_t* complete_sim_nanos) {
  uint8_t* page = nullptr;
  {
    ReaderMutexLock lock(pages_mu_);
    if (page_id >= pages_.size()) return nullptr;
    page = pages_[page_id].get();
  }
  // The counter and the completion instant depend only on the order of
  // this thread's I/Os, so single-threaded runs stay bit-deterministic.
  IoCounters& counters = counters_[static_cast<size_t>(scope())];
  uint64_t latency_nanos = 0;
  if (write) {
    ++counters.writes;
    latency_nanos = options_.write_latency_nanos;
  } else {
    ++counters.reads;
    latency_nanos = options_.read_latency_nanos;
  }
  serial_io_nanos_.fetch_add(latency_nanos, std::memory_order_relaxed);
  *complete_sim_nanos =
      clock_ != nullptr ? clock_->now_nanos() + latency_nanos : 0;
  return page;
}

void DiskSim::AdvanceClock(uint64_t complete_sim_nanos) {
  if (clock_ == nullptr || complete_sim_nanos == 0) return;
  charged_io_nanos_.fetch_add(clock_->AdvanceTo(complete_sim_nanos),
                              std::memory_order_relaxed);
}

Status DiskSim::ReadPage(PageId page_id, uint8_t* out) {
  uint64_t complete_sim_nanos = 0;
  const uint8_t* page = Charge(page_id, /*write=*/false, &complete_sim_nanos);
  if (page == nullptr) {
    return Status::IOError(Format("read of unallocated page %u", page_id));
  }
  std::memcpy(out, page, options_.page_size);
  AdvanceClock(complete_sim_nanos);
  return Status::OK();
}

Status DiskSim::WritePage(PageId page_id, const uint8_t* data) {
  uint64_t complete_sim_nanos = 0;
  uint8_t* page = Charge(page_id, /*write=*/true, &complete_sim_nanos);
  if (page == nullptr) {
    return Status::IOError(Format("write of unallocated page %u", page_id));
  }
  std::memcpy(page, data, options_.page_size);
  AdvanceClock(complete_sim_nanos);
  return Status::OK();
}

void DiskSim::LoadPageImage(PageId page_id, const uint8_t* data) {
  ReaderMutexLock lock(pages_mu_);
  std::memcpy(pages_[page_id].get(), data, options_.page_size);
}

IoCounters DiskSim::TotalCounters() const {
  IoCounters total;
  for (const IoCounters& c : counters_) {
    total.reads += c.reads;
    total.writes += c.writes;
  }
  return total;
}

void DiskSim::ResetCounters() {
  for (IoCounters& c : counters_) c = IoCounters{};
  serial_io_nanos_.store(0, std::memory_order_relaxed);
  charged_io_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace ocb
