#include "storage/disk_sim.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics_registry.h"
#include "storage/io_backend.h"
#include "util/format.h"

namespace ocb {

namespace {

/// Wall time the submitting thread spends blocked in Await ("io.wait",
/// nanoseconds). Cached function-local static, null when obs is off.
obs::LatencyHistogram* IoWaitHistogram() {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("io.wait");
  return h;
#else
  return nullptr;
#endif
}

}  // namespace

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

IoTicket::~IoTicket() {
  if (req_ != nullptr) DiskSim::WaitDone(req_.get());
}

IoTicket::IoTicket(IoTicket&& other) noexcept
    : req_(std::move(other.req_)),
      completed_(std::exchange(other.completed_, false)),
      status_(std::move(other.status_)),
      complete_sim_nanos_(other.complete_sim_nanos_) {}

IoTicket& IoTicket::operator=(IoTicket&& other) noexcept {
  if (this != &other) {
    if (req_ != nullptr) DiskSim::WaitDone(req_.get());
    req_ = std::move(other.req_);
    completed_ = std::exchange(other.completed_, false);
    status_ = std::move(other.status_);
    complete_sim_nanos_ = other.complete_sim_nanos_;
  }
  return *this;
}

DiskSim::DiskSim(const StorageOptions& options, SimClock* clock)
    : options_(options), clock_(clock) {
  // Resolve the io.wait instrument now, with no lock held: Await runs
  // under buffer-pool frame latches on the miss path, and the registry
  // mutex ranks above every engine mutex, so the one-time lookup must
  // never happen there.
  IoWaitHistogram();
  if (!options_.backing_file.empty()) {
    backing_ = std::fopen(options_.backing_file.c_str(), "wb+");
  }
  if (options_.io_backend != nullptr) {
    backend_ = options_.io_backend;
  } else if (options_.io_workers > 0) {
    backend_ = std::make_shared<IoBackend>(options_.io_workers);
  }
}

DiskSim::~DiskSim() {
  // Every ticket owner (the buffer pool) awaits before tearing the pool
  // down, so no request of ours is in flight here; a shared backend may
  // outlive us and keep serving the other shards.
  backend_.reset();
  if (backing_ != nullptr) std::fclose(backing_);
}

PageId DiskSim::AllocatePage() {
  auto page = std::make_unique<uint8_t[]>(options_.page_size);
  std::memset(page.get(), 0, options_.page_size);
  WriterMutexLock lock(pages_mu_);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

DiskSim::Issued DiskSim::Issue(IoRequest::Kind kind, PageId page_id) {
  Issued issued;
  {
    ReaderMutexLock lock(pages_mu_);
    if (page_id >= pages_.size()) {
      issued.status = Status::IOError(
          Format(kind == IoRequest::Kind::kRead
                     ? "read of unallocated page %u"
                     : "write of unallocated page %u",
                 page_id));
      return issued;
    }
    issued.page = pages_[page_id].get();
  }
  // Accounting happens at issue, on the caller's thread: the counter
  // increment and the simulated completion instant depend only on the
  // submission sequence, never on worker scheduling, so single-threaded
  // runs stay bit-deterministic.
  if (kind == IoRequest::Kind::kRead) {
    ++counters_[static_cast<size_t>(scope())].reads;
    issued.latency_nanos = options_.read_latency_nanos;
  } else {
    ++counters_[static_cast<size_t>(scope())].writes;
    issued.latency_nanos = options_.write_latency_nanos;
  }
  serial_io_nanos_.fetch_add(issued.latency_nanos, std::memory_order_relaxed);
  if (clock_ != nullptr) {
    issued.complete_sim_nanos = clock_->now_nanos() + issued.latency_nanos;
  }
  return issued;
}

Status DiskSim::Transfer(IoRequest::Kind kind, PageId page_id, uint8_t* page,
                         uint64_t latency_nanos, uint8_t* out,
                         const uint8_t* in) {
  if (options_.wall_clock_io && latency_nanos > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(latency_nanos));
  }
  if (kind == IoRequest::Kind::kRead) {
    std::memcpy(out, page, options_.page_size);
    return Status::OK();
  }
  std::memcpy(page, in, options_.page_size);
  if (backing_ != nullptr) {
    MutexLock file_lock(backing_mu_);
    const long offset =
        static_cast<long>(page_id) * static_cast<long>(options_.page_size);
    if (std::fseek(backing_, offset, SEEK_SET) != 0 ||
        std::fwrite(in, 1, options_.page_size, backing_) !=
            options_.page_size) {
      return Status::IOError(Format(
          "write-through to backing file failed for page %u", page_id));
    }
  }
  return Status::OK();
}

void DiskSim::ExecuteRequest(IoRequest* request) {
  const Status status = request->disk->Transfer(
      request->kind, request->page_id, request->page,
      request->latency_nanos, request->out, request->payload.get());
  MutexLock lock(request->mu);
  request->status = status;
  request->done = true;
  // Notify while still holding the mutex: the moment `done` is visible,
  // the awaiting thread may destroy the request, so the broadcast must
  // complete before the waiter can re-acquire the lock and return.
  request->cv.notify_all();
}

// TSA-exempt: cv wait relocks through the unique_lock.
void DiskSim::WaitDone(IoRequest* request) OCB_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<Mutex> lock(request->mu);
  request->cv.wait(lock, [&] { return request->done; });
}

IoTicket DiskSim::RunInline(IoRequest::Kind kind, PageId page_id,
                            uint8_t* out, const uint8_t* in) {
  Issued issued = Issue(kind, page_id);
  if (issued.status.ok()) {
    issued.status = Transfer(kind, page_id, issued.page,
                             issued.latency_nanos, out, in);
  }
  return IoTicket(std::move(issued.status), issued.complete_sim_nanos);
}

// TSA-exempt: the freshly built request is thread-private until Submit,
// so it is filled in without its mutex.
IoTicket DiskSim::Start(IoRequest::Kind kind, PageId page_id, uint8_t* out,
                        std::unique_ptr<uint8_t[]> payload)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  // Inline completion: the request runs here, on the caller, and the
  // ticket carries its result by value — no request object, no mutex.
  if (backend_ == nullptr) return RunInline(kind, page_id, out, payload.get());
  Issued issued = Issue(kind, page_id);
  if (!issued.status.ok()) {
    return IoTicket(std::move(issued.status), issued.complete_sim_nanos);
  }
  auto req = std::make_unique<IoRequest>();
  req->kind = kind;
  req->disk = this;
  req->page_id = page_id;
  req->page = issued.page;
  req->out = out;
  req->payload = std::move(payload);
  req->latency_nanos = issued.latency_nanos;
  backend_->Submit(req.get());
  return IoTicket(std::move(req), issued.complete_sim_nanos);
}

IoTicket DiskSim::StartRead(PageId page_id, uint8_t* out) {
  return Start(IoRequest::Kind::kRead, page_id, out, nullptr);
}

IoTicket DiskSim::StartWrite(PageId page_id,
                             std::unique_ptr<uint8_t[]> data) {
  return Start(IoRequest::Kind::kWrite, page_id, nullptr, std::move(data));
}

// TSA-exempt: cv wait relocks through the unique_lock; the request's
// status is read after `done` was observed under its mutex.
Status DiskSim::Await(IoTicket& ticket) OCB_NO_THREAD_SAFETY_ANALYSIS {
  if (!ticket.valid()) {
    return Status::InvalidArgument("await of an empty io ticket");
  }
  Status status;
  if (ticket.completed_) {
    ticket.completed_ = false;
    status = std::move(ticket.status_);
  } else {
    std::unique_ptr<IoRequest> req = std::move(ticket.req_);
    // Resolve before locking: the first lookup takes the registry mutex,
    // which ranks above io.request in the lock hierarchy.
    obs::LatencyHistogram* histo = IoWaitHistogram();
    {
      std::unique_lock<Mutex> lock(req->mu);
      if (!req->done) {
        const auto start = std::chrono::steady_clock::now();
        req->cv.wait(lock, [&] { return req->done; });
#ifndef OCB_OBS_DISABLED
        if (histo != nullptr) {
          histo->Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
        }
#else
        (void)start;
        (void)histo;
#endif
      }
    }
    status = std::move(req->status);
  }
  if (status.ok() && clock_ != nullptr && ticket.complete_sim_nanos_ != 0) {
    charged_io_nanos_.fetch_add(clock_->AdvanceTo(ticket.complete_sim_nanos_),
                                std::memory_order_relaxed);
  }
  return status;
}

Status DiskSim::ReadPage(PageId page_id, uint8_t* out) {
  // Blocking wrapper: runs inline on the caller even when I/O workers
  // exist. In wall_clock_io mode the injected sleep lands on this thread,
  // which is exactly the blocking baseline's cost model.
  IoTicket ticket = RunInline(IoRequest::Kind::kRead, page_id, out, nullptr);
  return Await(ticket);
}

Status DiskSim::WritePage(PageId page_id, const uint8_t* data) {
  IoTicket ticket =
      RunInline(IoRequest::Kind::kWrite, page_id, nullptr, data);
  return Await(ticket);
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
