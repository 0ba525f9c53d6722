#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/log_file.h"
#include "disk/volume.h"
#include "histogram.h"

/// \file tracing.h
/// Per-layer attribution from outside the store.
///
/// The traced run wraps the two layers below the store that it can reach
/// through public seams: the volume (StoreOptions::volume_decorator) and the
/// WAL's log file (StoreOptions::wal_log_decorator). The wrappers forward
/// every virtual method and count every metered call. While the calling
/// thread runs a traced store op (tls_op is set), each call is also timed and
/// becomes a child span of that op. The op's self time is its duration minus
/// its child spans: the time spent in core, objcache, models, storage, nf2
/// and the buffer pool.

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calls a child span can stand for.
enum CallKind : int {
  kVolRead,     ///< any metered read, including SubmitReadChained
  kVolWait,     ///< CompleteRead of an async read
  kVolWrite,    ///< WriteRun / WriteChained
  kVolSync,     ///< Volume::Sync
  kVolAlloc,    ///< AllocateRun / Free
  kWalAppend,   ///< LogFile::Append
  kWalSync,     ///< LogFile::Sync
  kWalReplace,  ///< LogFile::Replace (checkpoint truncation)
  kCallKinds,
};

const char* CallName(int kind);

/// Which part of the run a thread is in. Calls are counted per window so the
/// traced and untraced windows of one run can be compared.
enum Window : int { kOutside, kUntraced, kTraced, kWindows };

/// One traced store op, set on its thread while the op runs.
struct OpContext {
  uint64_t id = 0;
  uint64_t child_ns = 0;  ///< time inside wrapped calls so far
  bool sampled = false;   ///< its spans go to the span file
};

/// One span kept for the span file.
struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op_id = 0;  ///< the op itself, or the op a call belongs to
  bool is_op = false;
};

/// Least-squares sums for Eq. 1 at the call level: t = d1 + d2 * pages.
struct FitSums {
  double n = 0, x = 0, y = 0, xx = 0, xy = 0, yy = 0;

  void Add(double px, double py) {
    n += 1;
    x += px;
    y += py;
    xx += px * px;
    xy += px * py;
    yy += py * py;
  }
  void Merge(const FitSums& o) {
    n += o.n;
    x += o.x;
    y += o.y;
    xx += o.xx;
    xy += o.xy;
    yy += o.yy;
  }
};

/// Metered transfers as the wrapper saw them, split by window.
struct IoCount {
  uint64_t read_calls = 0;
  uint64_t pages_read = 0;
  uint64_t write_calls = 0;
  uint64_t pages_written = 0;
};

/// What one thread recorded. Plain fields: only its own thread writes them,
/// and they are read after that thread has been joined.
struct ThreadTrace {
  uint32_t tid = 0;
  std::array<Histogram, kCallKinds> calls;
  FitSums fit;          ///< traced transfer calls, microseconds vs pages
  double paper_ms = 0;  ///< Eq. 1 with the paper's d1/d2, same calls
  std::array<IoCount, kWindows> io;
  std::vector<Span> spans;   ///< reserved up front, never past span_cap
  size_t span_cap = 0;

  bool SpanRoom() const { return spans.size() < span_cap; }
};

extern thread_local OpContext* tls_op;
extern thread_local ThreadTrace* tls_trace;
extern thread_local int tls_window;

/// The most spans the span file holds.
inline constexpr size_t kMaxSpans = 100000;

/// Owns the per-thread sinks. A thread binds slot `tid` before its first op;
/// threads of later repetitions bind the same slots, so the sinks pool the
/// whole run.
class Tracer {
 public:
  explicit Tracer(uint32_t slots);

  void Bind(uint32_t tid);
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const {
    return threads_;
  }

  /// Writes every kept span in Chrome trace format.
  bool WriteSpanFile(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
  uint64_t origin_ns_ = 0;
};

/// Volume wrapper: forwards every virtual method of Volume, counts every
/// metered call the way the volume's own meter does, and times calls made
/// inside a traced op.
class TracingVolume final : public starfish::Volume {
 public:
  explicit TracingVolume(std::unique_ptr<starfish::Volume> inner)
      : inner_(std::move(inner)) {}

  /// Transfers seen since construction (the self-check compares this with
  /// the wrapped volume's meter).
  starfish::IoStats seen() const { return seen_.Snapshot(); }

  starfish::VolumeKind kind() const override { return inner_->kind(); }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint32_t pages_per_extent() const override {
    return inner_->pages_per_extent();
  }
  uint64_t page_count() const override { return inner_->page_count(); }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }
  starfish::Result<starfish::PageId> AllocateRun(uint32_t n) override;
  starfish::Status Free(starfish::PageId id) override;
  starfish::Status ReadRun(starfish::PageId first, uint32_t count,
                           char* out) override;
  starfish::Status WriteRun(starfish::PageId first, uint32_t count,
                            const char* src) override;
  bool supports_zero_copy() const override {
    return inner_->supports_zero_copy();
  }
  uint32_t io_buffer_alignment() const override {
    return inner_->io_buffer_alignment();
  }
  starfish::Status ReadRunZeroCopy(
      starfish::PageId first, uint32_t count,
      std::vector<const char*>* views) override;
  starfish::Status ReadChained(const std::vector<starfish::PageId>& ids,
                               const std::vector<char*>& outs) override;
  starfish::Status ReadChainedZeroCopy(
      const std::vector<starfish::PageId>& ids,
      std::vector<const char*>* views) override;
  bool supports_async_read() const override {
    return inner_->supports_async_read();
  }
  starfish::Result<uint64_t> SubmitReadChained(
      const std::vector<starfish::PageId>& ids,
      const std::vector<char*>& outs) override;
  starfish::Status CompleteRead(uint64_t ticket) override;
  void RegisterIoMemory(const void* base, size_t bytes) override {
    inner_->RegisterIoMemory(base, bytes);
  }
  void UnregisterIoMemory(const void* base) override {
    inner_->UnregisterIoMemory(base);
  }
  starfish::Status WriteChained(
      const std::vector<starfish::PageId>& ids,
      const std::vector<const char*>& srcs) override;
  const char* PeekPage(starfish::PageId id) const override {
    return inner_->PeekPage(id);
  }
  starfish::Status WritePageUnmetered(starfish::PageId id,
                                      const char* src) override {
    return inner_->WritePageUnmetered(id, src);
  }
  starfish::Status Sync() override;
  starfish::Status ReconcileLive(
      const std::vector<starfish::PageId>& live) override {
    return inner_->ReconcileLive(live);
  }
  starfish::IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<starfish::Volume> inner_;
  starfish::AtomicIoStats seen_;
};

/// Log-file wrapper: forwards the three WAL operations, counts appended
/// bytes and syncs, and times calls made inside a traced op.
class TracingLogFile final : public starfish::LogFile {
 public:
  explicit TracingLogFile(std::unique_ptr<starfish::LogFile> inner)
      : inner_(std::move(inner)) {}

  starfish::Status Append(std::string_view bytes) override;
  starfish::Status Sync() override;
  starfish::Status Replace(std::string_view bytes) override;
  const std::string& path() const override { return inner_->path(); }

 private:
  std::unique_ptr<starfish::LogFile> inner_;
};

/// Log traffic every TracingLogFile of the process has forwarded.
struct WalCount {
  uint64_t appends = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};
WalCount WalSeen();

}  // namespace e2e
