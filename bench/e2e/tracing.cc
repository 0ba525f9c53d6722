#include "tracing.h"

#include <atomic>
#include <cstdio>

#include "disk/disk_timing.h"

namespace e2e {

using starfish::IoStats;
using starfish::PageId;
using starfish::Result;
using starfish::Status;

thread_local OpContext* tls_op = nullptr;
thread_local ThreadTrace* tls_trace = nullptr;
thread_local int tls_window = kOutside;

namespace {

std::atomic<uint64_t> g_wal_appends{0};
std::atomic<uint64_t> g_wal_bytes{0};
std::atomic<uint64_t> g_wal_syncs{0};

bool IsOk(const Status& s) { return s.ok(); }
template <typename T>
bool IsOk(const Result<T>& r) {
  return r.ok();
}

/// Runs `call`; inside a traced op, also times it as a child span of kind
/// `kind`. `pages` > 0 marks a metered transfer, which feeds the Eq.-1 fit.
template <typename F>
auto Timed(int kind, uint64_t pages, F&& call) -> decltype(call()) {
  OpContext* op = tls_op;
  ThreadTrace* sink = tls_trace;
  if (op == nullptr || sink == nullptr) return call();
  const uint64_t start = NowNs();
  auto result = call();
  const uint64_t end = NowNs();
  const uint64_t ns = end - start;
  sink->calls[kind].Record(ns);
  op->child_ns += ns;
  if (pages > 0 && IsOk(result)) {
    sink->fit.Add(static_cast<double>(pages),
                  static_cast<double>(ns) / 1000.0);
    sink->paper_ms += starfish::LinearTimingModel{}.Cost(1, pages);
  }
  if (op->sampled && sink->SpanRoom()) {
    sink->spans.push_back(Span{CallName(kind), start, end, op->id, false});
  }
  return result;
}

IoCount* WindowCount() {
  ThreadTrace* sink = tls_trace;
  return sink == nullptr ? nullptr : &sink->io[tls_window];
}

void CountRead(starfish::AtomicIoStats* seen, uint64_t pages) {
  seen->CountRead(pages);
  if (IoCount* c = WindowCount()) {
    ++c->read_calls;
    c->pages_read += pages;
  }
}

void CountWrite(starfish::AtomicIoStats* seen, uint64_t pages) {
  seen->CountWrite(pages);
  if (IoCount* c = WindowCount()) {
    ++c->write_calls;
    c->pages_written += pages;
  }
}

}  // namespace

const char* CallName(int kind) {
  switch (kind) {
    case kVolRead:
      return "volume.read";
    case kVolWait:
      return "volume.complete";
    case kVolWrite:
      return "volume.write";
    case kVolSync:
      return "volume.sync";
    case kVolAlloc:
      return "volume.alloc";
    case kWalAppend:
      return "wal.append";
    case kWalSync:
      return "wal.sync";
    case kWalReplace:
      return "wal.replace";
    default:
      return "?";
  }
}

WalCount WalSeen() {
  return WalCount{g_wal_appends.load(std::memory_order_relaxed),
                  g_wal_bytes.load(std::memory_order_relaxed),
                  g_wal_syncs.load(std::memory_order_relaxed)};
}

// ------------------------------------------------------------------ Tracer --

Tracer::Tracer(uint32_t slots) : origin_ns_(NowNs()) {
  for (uint32_t i = 0; i < slots; ++i) {
    threads_.push_back(std::make_unique<ThreadTrace>());
    threads_.back()->tid = i;
    // The span budget is reserved up front, so recording never reallocates
    // inside a timed call.
    threads_.back()->span_cap = kMaxSpans / slots;
    threads_.back()->spans.reserve(threads_.back()->span_cap);
  }
}

void Tracer::Bind(uint32_t tid) { tls_trace = threads_.at(tid).get(); }

bool Tracer::WriteSpanFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"op\": %llu}}",
                   first ? "" : ",\n", s.name, s.is_op ? "op" : "call",
                   static_cast<double>(s.start_ns - origin_ns_) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0, t->tid,
                   static_cast<unsigned long long>(s.op_id));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------- TracingVolume --

Result<PageId> TracingVolume::AllocateRun(uint32_t n) {
  return Timed(kVolAlloc, 0, [&] { return inner_->AllocateRun(n); });
}

Status TracingVolume::Free(PageId id) {
  return Timed(kVolAlloc, 0, [&] { return inner_->Free(id); });
}

Status TracingVolume::ReadRun(PageId first, uint32_t count, char* out) {
  Status s = Timed(kVolRead, count,
                   [&] { return inner_->ReadRun(first, count, out); });
  if (s.ok()) CountRead(&seen_, count);
  return s;
}

Status TracingVolume::WriteRun(PageId first, uint32_t count, const char* src) {
  Status s = Timed(kVolWrite, count,
                   [&] { return inner_->WriteRun(first, count, src); });
  if (s.ok()) CountWrite(&seen_, count);
  return s;
}

Status TracingVolume::ReadRunZeroCopy(PageId first, uint32_t count,
                                      std::vector<const char*>* views) {
  Status s = Timed(kVolRead, count, [&] {
    return inner_->ReadRunZeroCopy(first, count, views);
  });
  if (s.ok()) CountRead(&seen_, count);
  return s;
}

Status TracingVolume::ReadChained(const std::vector<PageId>& ids,
                                  const std::vector<char*>& outs) {
  Status s = Timed(kVolRead, ids.size(),
                   [&] { return inner_->ReadChained(ids, outs); });
  if (s.ok()) CountRead(&seen_, ids.size());
  return s;
}

Status TracingVolume::ReadChainedZeroCopy(const std::vector<PageId>& ids,
                                          std::vector<const char*>* views) {
  Status s = Timed(kVolRead, ids.size(),
                   [&] { return inner_->ReadChainedZeroCopy(ids, views); });
  if (s.ok()) CountRead(&seen_, ids.size());
  return s;
}

Result<uint64_t> TracingVolume::SubmitReadChained(
    const std::vector<PageId>& ids, const std::vector<char*>& outs) {
  // The meter counts an async read at submit, and so does this wrapper. The
  // submit does not wait for the transfer, so it stays out of the Eq.-1 fit.
  Result<uint64_t> r = Timed(kVolRead, 0, [&] {
    return inner_->SubmitReadChained(ids, outs);
  });
  if (r.ok()) CountRead(&seen_, ids.size());
  return r;
}

Status TracingVolume::CompleteRead(uint64_t ticket) {
  return Timed(kVolWait, 0, [&] { return inner_->CompleteRead(ticket); });
}

Status TracingVolume::WriteChained(const std::vector<PageId>& ids,
                                   const std::vector<const char*>& srcs) {
  Status s = Timed(kVolWrite, ids.size(),
                   [&] { return inner_->WriteChained(ids, srcs); });
  if (s.ok()) CountWrite(&seen_, ids.size());
  return s;
}

Status TracingVolume::Sync() {
  return Timed(kVolSync, 0, [&] { return inner_->Sync(); });
}

// ---------------------------------------------------------- TracingLogFile --

Status TracingLogFile::Append(std::string_view bytes) {
  Status s = Timed(kWalAppend, 0, [&] { return inner_->Append(bytes); });
  if (s.ok()) {
    g_wal_appends.fetch_add(1, std::memory_order_relaxed);
    g_wal_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  return s;
}

Status TracingLogFile::Sync() {
  Status s = Timed(kWalSync, 0, [&] { return inner_->Sync(); });
  if (s.ok()) g_wal_syncs.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status TracingLogFile::Replace(std::string_view bytes) {
  return Timed(kWalReplace, 0, [&] { return inner_->Replace(bytes); });
}

}  // namespace e2e
