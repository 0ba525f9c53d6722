// End-to-end benchmark of the store: one workload per process.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--data DIR] [--spans FILE] [--row FILE] [--smoke]
//
// Runs the workload as a closed loop on kThreads threads through the public
// ComplexObjectStore / ReadSession / StoreTransaction API, kReps times on
// fresh stores, and prints every metric by name and unit; each reported value
// is the median of the repetitions. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones of the traced run.
// --row writes the full row (every metric, each repetition, the machine) as
// JSON; --spans writes sampled spans in Chrome trace format (traced run).
// Exits 1 on any failed op or oracle divergence, 2 on bad arguments.
//
// See README.md for the workloads, the metrics and how they relate.

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/complex_object_store.h"
#include "histogram.h"
#include "nf2/projection.h"
#include "tracing.h"
#include "workload/replayer.h"
#include "workload/scenario.h"
#include "workload/shadow.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using starfish::ComplexObjectStore;
using starfish::EngineStats;
using starfish::IoStats;
using starfish::LogFile;
using starfish::ObjCacheStats;
using starfish::Projection;
using starfish::ReadSession;
using starfish::Result;
using starfish::Schema;
using starfish::Status;
using starfish::StoreOptions;
using starfish::StoreTransaction;
using starfish::Tuple;
using starfish::Volume;
using starfish::VolumeKind;
using starfish::workload::Trace;
using starfish::workload::TraceHeader;
using starfish::workload::TraceReplayer;
using starfish::workload::WorkloadKeyOf;

/// Fresh-store repetitions per run; every reported value is their median.
constexpr int kReps = 3;

/// Set-ups per run, the repetitions' included: one that hits a slow fsync
/// should not move setup_s.
constexpr int kSetups = 5;

/// One traced op in this many keeps its spans for the span file.
constexpr uint64_t kSampleEvery = 64;

/// The measured window is cut into slices about this long. Rates and
/// latencies are taken per slice, and the traced run alternates traced and
/// untraced slices, so the two see the same store state and
/// trace.overhead_pct compares like with like.
constexpr double kSliceSeconds = 0.2;

// ---------------------------------------------------------------- op classes

enum OpClass : int {
  kClsGet,
  kClsChildren,
  kClsRoot,
  kClsGetByKey,
  kClsScan,
  kClsProbe,     ///< a read of a ref that is absent: NotFound is the answer
  kClsWrite,     ///< autonomous Put / Remove / Replace / UpdateRoot
  kClsTxnWrite,  ///< the same inside a transaction
  kClsCommit,
  kClsRollback,
  kClsLoad,   ///< set-up Puts and their commits
  kClsFlush,  ///< set-up checkpoint
  kClasses,
};

const char* const kClassNames[kClasses] = {
    "get",   "children",  "root_record", "get_by_key", "scan", "probe",
    "write", "txn_write", "commit",      "rollback",   "load", "flush"};

bool IsRead(int cls) { return cls <= kClsProbe; }
bool IsDataWrite(int cls) { return cls == kClsWrite || cls == kClsTxnWrite; }

int ReadClass(TraceOpKind kind) {
  switch (kind) {
    case TraceOpKind::kGet:
      return kClsGet;
    case TraceOpKind::kChildren:
      return kClsChildren;
    case TraceOpKind::kRootRecord:
      return kClsRoot;
    case TraceOpKind::kGetByKey:
      return kClsGetByKey;
    default:
      return kClsScan;
  }
}

// ------------------------------------------------------------ shared state

/// Window and slice new ops are booked in; the main thread moves them.
std::atomic<int> g_window{kOutside};
std::atomic<int> g_slice{0};
std::atomic<bool> g_stop{false};
thread_local int tls_slice = 0;

/// One slice of a measured window: the untraced ops that started in it.
struct Slice {
  uint64_t ops = 0;
  Histogram lat;
};

/// Ops a worker has finished, published for the main thread, which cuts
/// the counter window by op count. Written by the worker alone.
struct alignas(64) Progress {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};  ///< data writes

  static void Bump(std::atomic<uint64_t>* n) {
    n->store(n->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }
};

/// What one thread did in one repetition.
struct Worker {
  Worker(uint32_t id, size_t slice_count) : tid(id), slices(slice_count) {}

  uint32_t tid;
  std::array<Histogram, kClasses> lat;  ///< ops of untraced windows
  std::vector<Slice> slices;
  Histogram self;                       ///< traced ops minus child spans
  std::array<uint64_t, kWindows> ops{};
  uint64_t read_ns = 0;        ///< traced read ops: duration
  uint64_t read_child_ns = 0;  ///< traced read ops: inside the volume/WAL
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t next_op_id = 0;
  std::string first_error;
  Progress progress;
};

void Fail(Worker* w, const std::string& what) {
  if (w->first_error.empty()) w->first_error = what;
}

std::string Describe(const TraceOp& op) {
  return std::string(starfish::workload::ToString(op.kind)) +
         " ref=" + std::to_string(op.ref);
}

/// Runs `call` (a store call returning whether it succeeded) as one op of
/// class `cls` on the calling thread, and books it. The op is traced when
/// its window is traced or `always_trace` is set (set-up, queries).
template <typename F>
bool Op(Worker* w, int cls, bool always_trace, F&& call) {
  const int window = tls_window;
  const bool traced = window == kTraced || always_trace;
  OpContext ctx;
  if (traced) {
    ctx.id = (uint64_t{w->tid} << 48) | ++w->next_op_id;
    ctx.sampled = tls_trace != nullptr && tls_trace->SpanRoom() &&
                  w->next_op_id % kSampleEvery == 0;
    tls_op = &ctx;
  }
  const uint64_t start = NowNs();
  const bool ok = call();
  const uint64_t end = NowNs();
  tls_op = nullptr;
  ++w->attempted;
  if (!ok) ++w->failed;
  Progress::Bump(&w->progress.ops);
  if (IsRead(cls)) Progress::Bump(&w->progress.reads);
  if (IsDataWrite(cls)) Progress::Bump(&w->progress.writes);
  if (ctx.sampled && tls_trace->SpanRoom()) {
    tls_trace->spans.push_back(
        Span{kClassNames[cls], start, end, ctx.id, true});
  }
  if (window == kOutside) return ok;
  ++w->ops[window];
  const uint64_t ns = end - start;
  if (window == kUntraced) {
    w->lat[cls].Record(ns);
    Slice& slice = w->slices[tls_slice];
    ++slice.ops;
    slice.lat.Record(ns);
  } else {
    w->self.Record(ns - std::min(ns, ctx.child_ns));
    if (IsRead(cls)) {
      w->read_ns += ns;
      w->read_child_ns += ctx.child_ns;
    }
  }
  return ok;
}

/// Releases the workers of a phased workload phase by phase.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(uint32_t n) : n_(n) {}

  /// Waits until all n threads arrive; false once the run is over.
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      done_ = g_stop.load();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
    return !done_;
  }

 private:
  const uint32_t n_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;
  bool done_ = false;
};

/// Everything the ops of one repetition share.
struct RunCtx {
  explicit RunCtx(Projection projection) : all(std::move(projection)) {}

  const WorkloadSpec* spec = nullptr;
  ComplexObjectStore* store = nullptr;
  std::shared_ptr<const Schema> schema;
  Projection all;
  TraceHeader header;
  LiveSet* live = nullptr;
  PhaseBarrier* barrier = nullptr;
  Tracer* tracer = nullptr;
};

bool KeyMatches(const Tuple& t, ObjectRef ref) {
  return !t.values.empty() &&
         t.values[0].type() == starfish::AttrType::kInt32 &&
         t.values[0].as_int32() == WorkloadKeyOf(ref);
}

/// Issues one read and checks what the oracle can check cheaply: presence,
/// the object's key, and a scan's object count.
bool RunRead(const ReadSession& session, const RunCtx& ctx, const TraceOp& op,
             bool present, std::string* why) {
  Status status;
  bool right = false;
  switch (op.kind) {
    case TraceOpKind::kGet:
    case TraceOpKind::kGetByKey:
    case TraceOpKind::kRootRecord: {
      Result<Tuple> r =
          op.kind == TraceOpKind::kGet
              ? session.Get(op.ref, ctx.all)
              : op.kind == TraceOpKind::kGetByKey
                    ? session.GetByKey(WorkloadKeyOf(op.ref), ctx.all)
                    : session.RootRecord(op.ref);
      status = r.status();
      right = r.ok() && KeyMatches(r.value(), op.ref);
      break;
    }
    case TraceOpKind::kChildren: {
      Result<std::vector<ObjectRef>> r = session.Children(op.ref);
      status = r.status();
      right = r.ok();
      break;
    }
    default: {
      int64_t seen = 0;
      status = session.Scan(ctx.all, [&](int64_t, const Tuple&) {
        ++seen;
        return Status::OK();
      });
      const int64_t want = ctx.live->count.load(std::memory_order_relaxed);
      right = status.ok() && seen == want;
      if (status.ok() && !right) {
        *why = "scan saw " + std::to_string(seen) + " objects, expected " +
               std::to_string(want);
      }
      return right;
    }
  }
  if (!present) {
    if (status.IsNotFound()) return true;
    *why = Describe(op) + ": expected NotFound, got " + status.ToString();
    return false;
  }
  if (!right) *why = Describe(op) + ": " + status.ToString() + " (or wrong key)";
  return right;
}

/// One write op, autonomous or inside `txn`.
bool RunWrite(const RunCtx& ctx, Worker* w, const TraceOp& op,
              StoreTransaction* txn, int cls, bool setup) {
  Tuple tuple;
  if (op.kind == TraceOpKind::kPut || op.kind == TraceOpKind::kReplace) {
    tuple = starfish::workload::MakeWorkloadObject(
        *ctx.schema, op.ref, op.payload_seed, op.fanout,
        ctx.header.ref_universe, ctx.header.string_bytes);
  } else if (op.kind == TraceOpKind::kUpdateRoot) {
    tuple = starfish::workload::MakeWorkloadRootRecord(
        *ctx.schema, op.ref, op.payload_seed, ctx.header.string_bytes);
  }
  ComplexObjectStore* store = ctx.store;
  Status status;
  const bool ok = Op(w, cls, setup, [&] {
    switch (op.kind) {
      case TraceOpKind::kPut:
        status = txn ? txn->Put(op.ref, tuple) : store->Put(op.ref, tuple);
        break;
      case TraceOpKind::kReplace:
        status = txn ? txn->Replace(op.ref, tuple)
                     : store->Replace(op.ref, tuple);
        break;
      case TraceOpKind::kUpdateRoot:
        status = txn ? txn->UpdateRootRecord(op.ref, tuple)
                     : store->UpdateRootRecord(op.ref, tuple);
        break;
      default:
        status = txn ? txn->Remove(op.ref) : store->Remove(op.ref);
        break;
    }
    return status.ok();
  });
  if (!ok) Fail(w, Describe(op) + ": " + status.ToString());
  return ok;
}

/// One write group: an autonomous op, or Begin + ops + Commit/Rollback.
void RunWriteGroup(const RunCtx& ctx, Worker* w,
                   const std::vector<TraceOp>& group, bool setup) {
  if (group.front().kind != TraceOpKind::kBegin) {
    RunWrite(ctx, w, group.front(), nullptr, setup ? kClsLoad : kClsWrite,
             setup);
    return;
  }
  Result<StoreTransaction> begun = ctx.store->Begin();
  if (!begun.ok()) {
    ++w->attempted;
    ++w->failed;
    Fail(w, "Begin: " + begun.status().ToString());
    return;
  }
  StoreTransaction txn = std::move(begun).value();
  for (size_t i = 1; i + 1 < group.size(); ++i) {
    // A failed op leaves the handle to roll back on destruction.
    if (!RunWrite(ctx, w, group[i], &txn, setup ? kClsLoad : kClsTxnWrite,
                  setup)) {
      return;
    }
  }
  const bool commit = group.back().kind == TraceOpKind::kCommit;
  Status status;
  const int cls = setup ? kClsLoad : commit ? kClsCommit : kClsRollback;
  if (!Op(w, cls, setup, [&] {
        status = commit ? txn.Commit() : txn.Rollback();
        return status.ok();
      })) {
    Fail(w, std::string(commit ? "Commit" : "Rollback") + ": " +
                status.ToString());
  }
}

void RunWorker(const RunCtx& ctx, Worker* w, OpGen* gen) {
  if (ctx.tracer != nullptr) ctx.tracer->Bind(w->tid);
  const ReadSession session = ctx.store->OpenReadSession();
  std::vector<TraceOp> group;
  std::string why;
  const auto read_one = [&] {
    const TraceOp op = gen->NextRead();
    tls_window = g_window.load(std::memory_order_relaxed);
    tls_slice = g_slice.load(std::memory_order_relaxed);
    const bool present =
        op.kind == TraceOpKind::kScan || ctx.live->Live(op.ref);
    const int cls = present ? ReadClass(op.kind) : kClsProbe;
    if (!Op(w, cls, false,
            [&] { return RunRead(session, ctx, op, present, &why); })) {
      Fail(w, why);
    }
  };
  const auto write_one = [&] {
    gen->NextWrite(&group);
    tls_window = g_window.load(std::memory_order_relaxed);
    tls_slice = g_slice.load(std::memory_order_relaxed);
    RunWriteGroup(ctx, w, group, false);
  };
  if (ctx.spec->phase_ops == 0) {
    while (!g_stop.load(std::memory_order_relaxed)) {
      if (ctx.spec->reads) {
        read_one();
      } else {
        write_one();
      }
    }
  } else {
    const uint32_t per_thread = ctx.spec->phase_ops / kThreads;
    for (bool writing = false;; writing = !writing) {
      for (uint32_t i = 0; i < per_thread; ++i) {
        if (writing) {
          write_one();
        } else {
          read_one();
        }
      }
      if (!ctx.barrier->Wait()) break;
    }
  }
  tls_window = kOutside;
}

// -------------------------------------------------------------- the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string data = ".";
  std::string spans;
  std::string row;
};

/// Counters the store exposes, and the ops the workers have finished,
/// snapshot at an edge of the counter window.
struct Counters {
  EngineStats engine;
  ObjCacheStats cache;
  uint64_t lsn = 0;
  WalCount wal;
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
};

Counters Snap(ComplexObjectStore* store,
              const std::vector<std::unique_ptr<Worker>>& workers) {
  Counters c;
  for (const auto& w : workers) {
    c.ops += w->progress.ops.load(std::memory_order_relaxed);
    c.reads += w->progress.reads.load(std::memory_order_relaxed);
    c.writes += w->progress.writes.load(std::memory_order_relaxed);
  }
  c.engine = store->stats();
  c.cache = store->objcache_stats();
  c.lsn = store->wal() != nullptr ? store->wal()->next_lsn() : 0;
  c.wal = WalSeen();
  return c;
}

/// Counter deltas summed over the counter windows of every repetition, and
/// what the traced run needs beyond them.
struct Totals {
  uint64_t ops = 0, reads = 0, writes = 0;
  IoStats io;
  starfish::BufferStats buffer;
  uint64_t cache_hits = 0, cache_misses = 0, negative_hits = 0;
  uint64_t invalidations = 0, stale_drops = 0;
  uint64_t wal_records = 0, wal_bytes = 0, wal_syncs = 0;
  std::array<uint64_t, kWindows> window_ops{};
  std::array<double, kWindows> window_seconds{};
  uint64_t read_ns = 0, read_child_ns = 0;
  Histogram self;

  void Add(const Counters& a, const Counters& b) {
    ops += b.ops - a.ops;
    reads += b.reads - a.reads;
    writes += b.writes - a.writes;
    io += b.engine.io.Since(a.engine.io);
    buffer += b.engine.buffer.Since(a.engine.buffer);
    const ObjCacheStats d = b.cache.Since(a.cache);
    cache_hits += d.hits;
    cache_misses += d.misses;
    negative_hits += d.negative_hits;
    invalidations += d.invalidations;
    stale_drops += d.stale_drops;
    wal_records += b.lsn - a.lsn;
    wal_bytes += b.wal.bytes - a.wal.bytes;
    wal_syncs += b.wal.syncs - a.wal.syncs;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Named values with units; each name gathers one value per repetition and
/// reports their median, unless Set gives the value another way.
class Report {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    auto& m = metrics_[name];
    m.unit = unit;
    m.reps.push_back(value);
  }
  void Set(const std::string& name, double value) {
    metrics_.at(name).value = value;
  }
  double Value(const std::string& name) const {
    const Metric& m = metrics_.at(name);
    return m.value ? *m.value : Median(m.reps);
  }
  const char* Unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }
  const std::vector<double>& Reps(const std::string& name) const {
    return metrics_.at(name).reps;
  }
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const auto& [name, m] : metrics_) names.push_back(name);
    return names;
  }

 private:
  struct Metric {
    const char* unit = "";
    std::vector<double> reps;
    std::optional<double> value;
  };
  std::map<std::string, Metric> metrics_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class Bench {
 public:
  Bench(Args args, const WorkloadSpec& spec)
      : args_(std::move(args)),
        spec_(spec),
        schema_(starfish::workload::MakeWorkloadSchema()),
        backend_(spec.backend) {
    if (args_.smoke) {
      // A quick end-to-end check of the harness, not a measurement.
      spec_.objects = std::max<uint32_t>(2000, spec_.objects / 10);
      spec_.spare = spec_.spare / 10;
      spec_.prefix_ops = spec_.prefix_ops / 10;
      reps_ = 1;
    }
    header_ = MakeHeader(spec_, args_.seed);
    load_ = LoadOps(spec_, args_.seed);
    picker_ = std::make_unique<RefPicker>(spec_.objects, spec_.universe(),
                                          spec_.theta, args_.seed);
    dir_ = (std::filesystem::path(args_.data) /
            (std::string("e2e-") + spec_.name + "-" +
             std::to_string(::getpid())))
               .string();
    if (args_.trace) tracer_ = std::make_unique<Tracer>(kThreads + 1);
  }

  ~Bench() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Runs the verified prefix and every repetition; false on a failure.
  bool Run();
  void Print() const;
  bool WriteRow(const std::string& path) const;
  /// The last stdout line. A failed run reports no metrics.
  std::string ResultLine(bool ok) const;
  const std::string& error() const { return error_; }
  bool WriteSpans(const std::string& path) const {
    return tracer_ == nullptr || tracer_->WriteSpanFile(path);
  }

 private:
  uint64_t Seed(uint64_t rep, uint64_t thread) const {
    starfish::Rng rng(args_.seed ^ (rep * 1000003ull + thread * 7919ull + 1));
    return rng.Next();
  }
  StoreOptions Options(const std::string& dir);
  Result<std::unique_ptr<ComplexObjectStore>> OpenFresh(const std::string& dir);
  RunCtx Ctx(ComplexObjectStore* store) const;
  /// Opens a fresh store, loads it and checkpoints it: the set-up every
  /// repetition pays, timed as setup_s. Null on a failure.
  std::unique_ptr<ComplexObjectStore> SetUp();
  /// Closes `store` (a checkpoint, if it changed) and deletes `dir`.
  bool Close(std::unique_ptr<ComplexObjectStore> store,
             const std::string& dir);
  bool VerifiedPrefix();
  bool Rep(int rep);
  bool CheckState(ComplexObjectStore* store, const LiveSet& live,
                  const char* what);
  double SpaceAmp(ComplexObjectStore* store, const LiveSet& live) const;
  void PerLayer();

  Args args_;
  WorkloadSpec spec_;
  std::shared_ptr<const Schema> schema_;
  VolumeKind backend_;
  std::string backend_note_;
  int reps_ = kReps;
  TraceHeader header_;
  std::vector<TraceOp> load_;
  std::unique_ptr<RefPicker> picker_;
  std::string dir_;
  std::unique_ptr<Tracer> tracer_;
  TracingVolume* traced_volume_ = nullptr;  ///< of the open store

  Report report_;  ///< the metrics of the last stdout line
  Report info_;    ///< every other metric
  Totals totals_;
  std::vector<double> slice_rate_, slice_p50_, slice_p99_;  ///< all slices
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string error_;
};

StoreOptions Bench::Options(const std::string& dir) {
  StoreOptions o;
  o.model = spec_.model;
  o.backend = backend_;
  o.path = dir;
  o.buffer_frames = spec_.frames;
  o.buffer_shards = kThreads;
  o.write_stripes = spec_.write_stripes;
  o.wal_sync = spec_.wal_sync;
  o.objcache.enabled = spec_.objcache;
  o.objcache.capacity_bytes = spec_.objcache_bytes;
  if (tracer_ != nullptr) {
    o.volume_decorator = [this](std::unique_ptr<Volume> inner) {
      auto traced = std::make_unique<TracingVolume>(std::move(inner));
      traced_volume_ = traced.get();
      return std::unique_ptr<Volume>(std::move(traced));
    };
    o.wal_log_decorator = [](std::unique_ptr<LogFile> inner) {
      return std::unique_ptr<LogFile>(
          std::make_unique<TracingLogFile>(std::move(inner)));
    };
  }
  return o;
}

Result<std::unique_ptr<ComplexObjectStore>> Bench::OpenFresh(
    const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto opened = ComplexObjectStore::Open(schema_, Options(dir));
  if (!opened.ok() && backend_ == VolumeKind::kDirect &&
      opened.status().IsNotSupported()) {
    // The filesystem refuses O_DIRECT: run on mmap and say so in the row.
    std::printf("direct backend refused (%s); running on mmap\n",
                opened.status().ToString().c_str());
    backend_ = VolumeKind::kMmap;
    backend_note_ = "direct refused by the filesystem";
    std::filesystem::remove_all(dir);
    opened = ComplexObjectStore::Open(schema_, Options(dir));
  }
  return opened;
}

bool Bench::CheckState(ComplexObjectStore* store, const LiveSet& live,
                       const char* what) {
  Result<uint32_t> got = TraceReplayer::StoreStateDigest(store);
  if (!got.ok()) {
    error_ = std::string(what) + ": state scan failed: " +
             got.status().ToString();
    return false;
  }
  if (got.value() != live.Shadow(schema_, header_).Digest()) {
    error_ = std::string(what) + ": store state diverges from the oracle";
    return false;
  }
  return true;
}

double Bench::SpaceAmp(ComplexObjectStore* store, const LiveSet& live) const {
  // Live volume bytes over the canonical bytes of the live objects. The
  // canonical size depends only on the fanout: every string attribute of a
  // generated object has the same length.
  std::array<uint64_t, 256> by_fanout{};
  uint64_t canonical = 0;
  for (ObjectRef ref = 0; ref < live.recipes.size(); ++ref) {
    const uint8_t f = live.recipes[ref].fanout;
    if (f == 0) continue;
    if (by_fanout[f] == 0) {
      std::string bytes;
      starfish::workload::AppendCanonicalTuple(
          starfish::workload::MakeWorkloadObject(*schema_, ref, 1, f,
                                                 header_.ref_universe,
                                                 header_.string_bytes),
          &bytes);
      by_fanout[f] = bytes.size();
    }
    canonical += by_fanout[f];
  }
  const Volume* disk = store->engine()->disk();
  return Ratio(static_cast<double>(disk->live_page_count()) * disk->page_size(),
               static_cast<double>(canonical));
}

bool Bench::VerifiedPrefix() {
  // The load, then prefix_ops ops of the same generator, replayed through
  // TraceReplayer on kThreads threads with every read byte-compared against
  // the ShadowModel oracle.
  Trace trace;
  trace.header = header_;
  trace.ops = load_;
  LiveSet live(load_, spec_.universe());
  std::vector<OpGen> gens;
  for (uint32_t t = 0; t < kThreads; ++t) {
    gens.emplace_back(spec_, picker_.get(), &live, t, Seed(reps_, t));
  }
  std::vector<TraceOp> group;
  const uint32_t phase = spec_.phase_ops != 0 ? spec_.phase_ops
                                              : spec_.prefix_ops;
  for (uint32_t done = 0; done < spec_.prefix_ops;) {
    const bool writing =
        spec_.phase_ops != 0 ? (done / phase) % 2 == 1 : !spec_.reads;
    const uint32_t t = done % kThreads;
    if (writing) {
      gens[t].NextWrite(&group);
      trace.ops.insert(trace.ops.end(), group.begin(), group.end());
    } else {
      trace.ops.push_back(gens[t].NextRead());
    }
    ++done;
  }
  const std::vector<TraceOp> queries =
      OpGen(spec_, picker_.get(), &live, 0, Seed(reps_, kThreads)).Queries();
  trace.ops.insert(trace.ops.end(), queries.begin(), queries.end());
  const std::string dir = dir_ + "-prefix";
  auto opened = OpenFresh(dir);
  if (!opened.ok()) {
    error_ = "open: " + opened.status().ToString();
    return false;
  }
  std::unique_ptr<ComplexObjectStore> store = std::move(opened).value();
  TraceReplayer replayer(trace, schema_);
  starfish::workload::ReplayOptions options;
  options.threads = kThreads;
  options.verify_reads = true;
  Result<starfish::workload::ReplayStats> replayed =
      replayer.Replay(store.get(), options);
  bool ok = replayed.ok();
  if (!ok) {
    error_ = "verified replay: " + replayed.status().ToString();
  } else {
    Result<uint32_t> got = TraceReplayer::StoreStateDigest(store.get());
    ok = got.ok() && got.value() == replayer.shadow().Digest();
    if (!ok) error_ = "verified replay: final state diverges from the oracle";
  }
  ok = Close(std::move(store), dir) && ok;
  std::printf("verified replay: %zu ops (%u after the load) %s\n",
              trace.ops.size(), spec_.prefix_ops, ok ? "match the oracle"
                                                     : "DIVERGE");
  return ok;
}

RunCtx Bench::Ctx(ComplexObjectStore* store) const {
  RunCtx ctx(Projection::All(*schema_));
  ctx.spec = &spec_;
  ctx.store = store;
  ctx.schema = schema_;
  ctx.header = header_;
  ctx.tracer = tracer_.get();
  return ctx;
}

std::unique_ptr<ComplexObjectStore> Bench::SetUp() {
  Worker loader(0, 0);
  if (tracer_ != nullptr) tracer_->Bind(0);
  tls_window = kOutside;
  const bool traced = tracer_ != nullptr;
  const uint64_t start = NowNs();
  auto opened = OpenFresh(dir_);
  if (!opened.ok()) {
    error_ = "open: " + opened.status().ToString();
    return nullptr;
  }
  std::unique_ptr<ComplexObjectStore> store = std::move(opened).value();
  const RunCtx ctx = Ctx(store.get());
  std::vector<TraceOp> group;
  for (const TraceOp& op : load_) {
    group.push_back(op);
    if (op.kind == TraceOpKind::kCommit) {
      RunWriteGroup(ctx, &loader, group, traced);
      group.clear();
    }
  }
  Status flushed;
  if (!Op(&loader, kClsFlush, traced, [&] {
        flushed = store->Flush();
        return flushed.ok();
      })) {
    Fail(&loader, "Flush: " + flushed.ToString());
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  attempted_ += loader.attempted;
  failed_ += loader.failed;
  if (loader.failed != 0) {
    error_ = "load: " + loader.first_error;
    return nullptr;
  }
  if (tracer_ == nullptr) report_.Add("setup_s", "s", seconds);
  std::printf("set-up %.3f s\n", seconds);
  return store;
}

bool Bench::Close(std::unique_ptr<ComplexObjectStore> store,
                  const std::string& dir) {
  const Status closed = store->Close();
  store.reset();
  traced_volume_ = nullptr;
  std::filesystem::remove_all(dir);
  if (!closed.ok() && error_.empty()) error_ = "close: " + closed.ToString();
  return closed.ok();
}

bool Bench::Rep(int rep) {
  std::unique_ptr<ComplexObjectStore> store = SetUp();
  if (store == nullptr) return false;
  RunCtx ctx = Ctx(store.get());

  // ---- the closed loop: a warm-up, then slices of the measured window
  const double rep_seconds = args_.seconds / reps_;
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(std::lround(rep_seconds / kSliceSeconds)));
  LiveSet live(load_, spec_.universe());
  PhaseBarrier barrier(kThreads);
  ctx.live = &live;
  ctx.barrier = &barrier;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<OpGen> gens;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<Worker>(t + 1, slices));
    gens.emplace_back(spec_, picker_.get(), &live, t, Seed(rep, t));
  }
  g_window.store(kOutside);
  g_slice.store(0);
  g_stop.store(false);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(RunWorker, std::cref(ctx), workers[t].get(),
                         &gens[t]);
  }
  // The warm-up and the counter window are cut by op count, so per-op
  // counts cover the same ops however fast the machine runs; rates and
  // latencies are cut by time, into slices.
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const auto finished = [&] {
    uint64_t n = 0;
    for (const auto& w : workers) {
      n += w->progress.ops.load(std::memory_order_relaxed);
    }
    return n;
  };
  const auto poll = std::chrono::milliseconds(1);
  const double warmup_s = std::min(0.5, rep_seconds / 10);
  const auto warm_ops = static_cast<uint64_t>(spec_.nominal_ops_per_s * warmup_s);
  const auto count_ops =
      static_cast<uint64_t>(spec_.nominal_ops_per_s * rep_seconds / 2);
  for (const auto give_up = Clock::now() + seconds(5 * warmup_s);
       finished() < warm_ops && Clock::now() < give_up;) {
    std::this_thread::sleep_for(poll);
  }
  const Counters before = Snap(store.get(), workers);
  std::optional<Counters> after;
  const auto poll_until = [&](Clock::time_point deadline) {
    for (auto now = Clock::now(); now < deadline; now = Clock::now()) {
      if (!after && finished() >= before.ops + count_ops) {
        after = Snap(store.get(), workers);
      }
      std::this_thread::sleep_until(std::min(now + poll, deadline));
    }
  };
  std::vector<double> slice_s(slices);
  std::vector<int> slice_window(slices, kUntraced);
  std::array<double, kWindows> window_s{};
  // The traced run alternates windows A B B A A B B A ..., which cancels a
  // steady drift (caches still warming) between the two sides; A is the
  // traced side in even repetitions.
  const int side_a = rep % 2 == 0 ? kTraced : kUntraced;
  const int side_b = side_a == kTraced ? kUntraced : kTraced;
  const auto start = Clock::now();
  uint64_t slice_start = NowNs();
  for (size_t i = 0; i < slices; ++i) {
    if (tracer_ != nullptr) {
      slice_window[i] = i % 4 == 0 || i % 4 == 3 ? side_a : side_b;
    }
    g_slice.store(static_cast<int>(i));
    g_window.store(slice_window[i]);
    poll_until(start + seconds(rep_seconds * static_cast<double>(i + 1) /
                               static_cast<double>(slices)));
    const uint64_t now = NowNs();
    slice_s[i] = static_cast<double>(now - slice_start) / 1e9;
    window_s[slice_window[i]] += slice_s[i];
    slice_start = now;
  }
  g_window.store(kOutside);
  // The window is half the nominal ops of the measured time. On a machine
  // slower than half the nominal rate the loop runs on until it is full,
  // for at most half the measured time more.
  poll_until(after ? Clock::now() : Clock::now() + seconds(rep_seconds / 2));
  if (!after) after = Snap(store.get(), workers);
  g_stop.store(true);
  for (std::thread& t : threads) t.join();
  // The peak of set-up plus the first timed repetition, before any oracle
  // pass has allocated: the store's footprint, not the checker's.
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // ---- the value-scan queries, one at a time
  Worker queries(0, 0);
  {
    OpGen gen(spec_, picker_.get(), &live, 0, Seed(rep, kThreads));
    const ReadSession session = store->OpenReadSession();
    std::string why;
    for (const TraceOp& op : gen.Queries()) {
      const int cls = ReadClass(op.kind);
      const uint64_t begin = NowNs();
      if (!Op(&queries, cls, tracer_ != nullptr,
              [&] { return RunRead(session, ctx, op, true, &why); })) {
        Fail(&queries, why);
      }
      queries.lat[cls].Record(NowNs() - begin);
    }
  }

  // ---- book the repetition
  std::array<Histogram, kClasses> by_class;
  uint64_t ops = 0;
  by_class[kClsGetByKey].Merge(queries.lat[kClsGetByKey]);
  by_class[kClsScan].Merge(queries.lat[kClsScan]);
  std::vector<const Worker*> all{&queries};
  for (const auto& w : workers) {
    all.push_back(w.get());
    for (int c = 0; c < kClasses; ++c) by_class[c].Merge(w->lat[c]);
    ops += w->ops[kUntraced] + w->ops[kTraced];
    for (int win = 0; win < kWindows; ++win) {
      totals_.window_ops[win] += w->ops[win];
    }
    totals_.read_ns += w->read_ns;
    totals_.read_child_ns += w->read_child_ns;
    totals_.self.Merge(w->self);
  }
  for (const Worker* w : all) {
    attempted_ += w->attempted;
    failed_ += w->failed;
    if (!w->first_error.empty() && error_.empty()) error_ = w->first_error;
  }
  for (int win = 0; win < kWindows; ++win) {
    totals_.window_seconds[win] += window_s[win];
  }
  totals_.Add(before, *after);
  if (!error_.empty()) return false;

  // ---- the oracle, and the wrapper self-check of the traced run
  if (!CheckState(store.get(), live, "after the timed repetition")) {
    return false;
  }
  if (traced_volume_ != nullptr) {
    const IoStats seen = traced_volume_->seen();
    const IoStats meter = store->stats().io;
    const auto close_enough = [](uint64_t a, uint64_t b) {
      return std::max(a, b) - std::min(a, b) <= std::max(a, b) / 100;
    };
    if (!close_enough(seen.pages_read, meter.pages_read) ||
        !close_enough(seen.read_calls, meter.read_calls) ||
        !close_enough(seen.pages_written, meter.pages_written) ||
        !close_enough(seen.write_calls, meter.write_calls)) {
      error_ = "traced volume saw " + seen.ToString() +
               " but the volume metered " + meter.ToString();
      return false;
    }
  }
  const double space_amp = SpaceAmp(store.get(), live);

  if (!Close(std::move(store), dir_)) return false;
  const double measured_s = window_s[kUntraced] + window_s[kTraced];
  std::printf("rep %d: %llu ops in %.3f s, state matches the oracle\n",
              rep + 1, static_cast<unsigned long long>(ops), measured_s);
  if (tracer_ != nullptr) return true;

  // Rates and latencies per slice: the run reports their median over every
  // slice of every repetition, which a burst of load from outside the
  // process moves far less than a pooled figure.
  std::vector<double> rate, p50, p99;
  for (size_t i = 0; i < slices; ++i) {
    Slice merged;
    for (const auto& w : workers) {
      merged.ops += w->slices[i].ops;
      merged.lat.Merge(w->slices[i].lat);
    }
    rate.push_back(static_cast<double>(merged.ops) / slice_s[i]);
    p50.push_back(merged.lat.Quantile(0.50) / 1e3);
    p99.push_back(merged.lat.Quantile(0.99) / 1e3);
  }
  slice_rate_.insert(slice_rate_.end(), rate.begin(), rate.end());
  slice_p50_.insert(slice_p50_.end(), p50.begin(), p50.end());
  slice_p99_.insert(slice_p99_.end(), p99.begin(), p99.end());

  report_.Add("ops_per_s", "1/s", Median(rate));
  report_.Add("op_p50_us", "us", Median(p50));
  report_.Add("op_p99_us", "us", Median(p99));
  const IoStats io = after->engine.io.Since(before.engine.io);
  const double counted = static_cast<double>(after->ops - before.ops);
  report_.Add("io_pages_per_op", "count",
              Ratio(static_cast<double>(io.TotalPages()), counted));
  report_.Add("io_calls_per_op", "count",
              Ratio(static_cast<double>(io.TotalCalls()), counted));
  report_.Add("space_amp", "ratio", space_amp);
  if (rep == 0) report_.Add("peak_rss_mb", "MB", peak_rss_mb);

  // Per-class latencies where the class ran; a p99 needs >= 10 samples
  // beyond it.
  const auto add_class = [&](const std::string& prefix, const Histogram& h,
                             bool ms) {
    if (h.count() == 0) return;
    const double scale = ms ? 1e6 : 1e3;
    const char* unit = ms ? "ms" : "us";
    info_.Add(prefix + (ms ? "_p50_ms" : "_p50_us"), unit,
              h.Quantile(0.50) / scale);
    if (h.count() >= 1000) {
      info_.Add(prefix + (ms ? "_p99_ms" : "_p99_us"), unit,
                h.Quantile(0.99) / scale);
    }
    info_.Add(prefix + "_count", "count", static_cast<double>(h.count()));
  };
  Histogram nav = by_class[kClsChildren];
  nav.Merge(by_class[kClsRoot]);
  add_class("get", by_class[kClsGet], false);
  add_class("nav", nav, false);
  add_class("probe", by_class[kClsProbe], false);
  add_class("getbykey", by_class[kClsGetByKey], true);
  add_class("scan", by_class[kClsScan], true);
  add_class("write", by_class[kClsWrite], false);
  add_class("txn_write", by_class[kClsTxnWrite], false);
  add_class("commit", by_class[kClsCommit], false);
  add_class("rollback", by_class[kClsRollback], false);
  return true;
}

void Bench::PerLayer() {
  // Pooled over every repetition: counters over the counter windows, call
  // latencies over every traced call (set-up included), self time over the
  // ops of traced slices.
  const Totals& t = totals_;
  const double ops = static_cast<double>(t.ops);
  const double reads = static_cast<double>(t.reads);
  const double writes = static_cast<double>(t.writes);
  std::array<Histogram, kCallKinds> calls;
  FitSums fit;
  double paper_ms = 0;
  std::array<IoCount, kWindows> io{};
  for (const auto& th : tracer_->threads()) {
    for (int k = 0; k < kCallKinds; ++k) calls[k].Merge(th->calls[k]);
    fit.Merge(th->fit);
    paper_ms += th->paper_ms;
    for (int w = 0; w < kWindows; ++w) {
      io[w].read_calls += th->io[w].read_calls;
      io[w].pages_read += th->io[w].pages_read;
      io[w].write_calls += th->io[w].write_calls;
      io[w].pages_written += th->io[w].pages_written;
    }
  }
  const auto us = [](const Histogram& h, double q) {
    return h.Quantile(q) / 1e3;
  };
  Report& r = report_;
  r.Add("core.self_us_p50", "us", us(t.self, 0.50));
  r.Add("core.self_us_p99", "us", us(t.self, 0.99));
  r.Add("objcache.hit_ratio", "ratio",
        Ratio(t.cache_hits, t.cache_hits + t.cache_misses));
  r.Add("objcache.negative_hits_per_read", "count",
        Ratio(t.negative_hits, reads));
  r.Add("objcache.invalidations_per_write", "count",
        Ratio(t.invalidations, writes));
  r.Add("objcache.stale_drops_per_write", "count",
        Ratio(t.stale_drops, writes));
  r.Add("buffer.fixes_per_op", "count", Ratio(t.buffer.fixes, ops));
  r.Add("buffer.hit_ratio", "ratio", Ratio(t.buffer.hits, t.buffer.fixes));
  r.Add("buffer.misses_per_op", "count", Ratio(t.buffer.misses, ops));
  r.Add("buffer.evictions_per_op", "count", Ratio(t.buffer.evictions, ops));
  r.Add("buffer.write_backs_per_op", "count",
        Ratio(t.buffer.write_backs, ops));
  r.Add("disk.read_calls_per_op", "count", Ratio(t.io.read_calls, ops));
  r.Add("disk.pages_per_read_call", "count",
        Ratio(t.io.pages_read, t.io.read_calls));
  r.Add("disk.read_call_us_p50", "us", us(calls[kVolRead], 0.50));
  r.Add("disk.read_call_us_p99", "us", us(calls[kVolRead], 0.99));
  r.Add("disk.write_call_us_p50", "us", us(calls[kVolWrite], 0.50));
  r.Add("disk.sync_us_p50", "us", us(calls[kVolSync], 0.50));
  r.Add("disk.busy_share.read", "ratio",
        Ratio(static_cast<double>(t.read_child_ns),
              static_cast<double>(t.read_ns)));

  // Eq. 1 per transfer call, read or write, t = d1 + d2 * pages, by least
  // squares; the paper's ratio prices the same calls at its 1993 d1/d2.
  const double sxx = fit.xx - fit.x * fit.x / std::max(fit.n, 1.0);
  const double sxy = fit.xy - fit.x * fit.y / std::max(fit.n, 1.0);
  const double syy = fit.yy - fit.y * fit.y / std::max(fit.n, 1.0);
  const double d2 = Ratio(sxy, sxx);
  const double d1 = Ratio(fit.y - d2 * fit.x, fit.n);
  r.Add("disk.eq1_us_per_call", "us", d1);
  r.Add("disk.eq1_us_per_page", "us", d2);
  r.Add("disk.eq1_r2", "ratio", Ratio(sxy * sxy, sxx * syy));
  r.Add("disk.eq1_paper_ratio", "ratio", Ratio(paper_ms * 1e3, fit.y));

  r.Add("wal.writes_per_sync", "count", Ratio(t.wal_records, t.wal_syncs));
  r.Add("wal.bytes_per_write", "bytes", Ratio(t.wal_bytes, t.wal_records));
  r.Add("wal.append_us_p50", "us", us(calls[kWalAppend], 0.50));
  r.Add("wal.sync_us_p50", "us", us(calls[kWalSync], 0.50));
  r.Add("wal.sync_us_p99", "us", us(calls[kWalSync], 0.99));

  const double rate_untraced =
      Ratio(t.window_ops[kUntraced], t.window_seconds[kUntraced]);
  const double rate_traced = Ratio(t.window_ops[kTraced], t.window_seconds[kTraced]);
  r.Add("trace.overhead_pct", "%",
        100.0 * (Ratio(rate_untraced, rate_traced) - 1.0));
  const double pages_untraced =
      Ratio(io[kUntraced].pages_read + io[kUntraced].pages_written,
            t.window_ops[kUntraced]);
  const double pages_traced =
      Ratio(io[kTraced].pages_read + io[kTraced].pages_written,
            t.window_ops[kTraced]);
  r.Add("trace.io_delta_pct", "%",
        pages_untraced == 0
            ? 0.0
            : 100.0 * std::abs(pages_traced / pages_untraced - 1.0));

  info_.Add("disk.eq1_calls", "count", fit.n);
  info_.Add("disk.volume_sync_count", "count",
            static_cast<double>(calls[kVolSync].count()));
  info_.Add("wal.sync_count", "count",
            static_cast<double>(calls[kWalSync].count()));
  info_.Add("trace.ops_traced", "count", static_cast<double>(t.window_ops[kTraced]));
  info_.Add("trace.ops_untraced", "count",
            static_cast<double>(t.window_ops[kUntraced]));
  info_.Add("trace.ops_per_s_untraced", "1/s", rate_untraced);
  info_.Add("trace.ops_per_s_traced", "1/s", rate_traced);
  info_.Add("trace.io_pages_per_op_traced", "count", pages_traced);
  info_.Add("trace.io_pages_per_op_untraced", "count", pages_untraced);
}

bool Bench::Run() {
  std::printf("e2e workload=%s seed=%llu trace=%d seconds=%g reps=%d "
              "threads=%u nproc=%u model=%s objects=%u%s\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              args_.trace ? 1 : 0, args_.seconds, reps_, kThreads,
              std::thread::hardware_concurrency(),
              starfish::ToString(spec_.model).c_str(), spec_.objects,
              args_.smoke ? " smoke" : "");
  for (int rep = 0; rep < reps_; ++rep) {
    if (!Rep(rep)) return false;
  }
  // Set-up alone, so that setup_s is a median of kSetups.
  for (int i = reps_; tracer_ == nullptr && !args_.smoke && i < kSetups; ++i) {
    std::unique_ptr<ComplexObjectStore> store = SetUp();
    if (store == nullptr || !Close(std::move(store), dir_)) return false;
  }
  // Last, so its oracle's memory stays out of peak_rss_mb.
  if (!VerifiedPrefix()) return false;
  if (tracer_ != nullptr) {
    PerLayer();
  } else {
    report_.Set("ops_per_s", Median(slice_rate_));
    report_.Set("op_p50_us", Median(slice_p50_));
    report_.Set("op_p99_us", Median(slice_p99_));
  }
  return true;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Bench::Print() const {
  std::printf("backend=%s%s%s\n", starfish::ToString(backend_).c_str(),
              backend_note_.empty() ? "" : " ", backend_note_.c_str());
  for (const std::string& name : report_.Names()) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), report_.Value(name),
                report_.Unit(name));
  }
  for (const std::string& name : info_.Names()) {
    std::printf("  %-34s %16.6f %s (info)\n", name.c_str(),
                info_.Value(name), info_.Unit(name));
  }
}

std::string Bench::ResultLine(bool ok) const {
  std::string line = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  if (ok) {
    // The untraced run reports exactly the end-to-end metrics, the traced
    // run exactly the per-layer ones; BENCHMARK.json lists the same names.
    for (const std::string& name : report_.Names()) {
      line += std::string(first ? "" : ", ") + "\"" + name +
              "\": {\"value\": " + Json(report_.Value(name)) +
              ", \"unit\": \"" + report_.Unit(name) + "\"}";
      first = false;
    }
  }
  return line + "}}";
}

bool Bench::WriteRow(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  struct utsname uts {};
  ::uname(&uts);
  const char* sha = std::getenv("E2E_GIT_SHA");
  std::fprintf(
      f,
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"reps\": %d, \"threads\": %u, \"nproc\": %u, "
      "\"backend\": \"%s\", \"backend_note\": \"%s\", \"model\": \"%s\", "
      "\"objects\": %u, \"kernel\": \"%s\", \"compiler\": \"gcc %s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu",
      spec_.name, static_cast<unsigned long long>(args_.seed),
      args_.trace ? 1 : 0, Json(args_.seconds).c_str(), reps_, kThreads,
      std::thread::hardware_concurrency(),
      starfish::ToString(backend_).c_str(), backend_note_.c_str(),
      starfish::ToString(spec_.model).c_str(), spec_.objects, uts.release,
      __VERSION__, E2E_BUILD_TYPE, sha != nullptr ? sha : "unknown",
      error_.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  const auto section = [&](const char* key, const Report& rep) {
    std::fprintf(f, ", \"%s\": {", key);
    bool first = true;
    for (const std::string& name : rep.Names()) {
      std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\", \"reps\": [",
                   first ? "" : ", ", name.c_str(),
                   Json(rep.Value(name)).c_str(), rep.Unit(name));
      const std::vector<double>& v = rep.Reps(name);
      for (size_t i = 0; i < v.size(); ++i) {
        std::fprintf(f, "%s%s", i ? ", " : "", Json(v[i]).c_str());
      }
      std::fprintf(f, "]}");
      first = false;
    }
    std::fprintf(f, "}");
  };
  section("metrics", report_);
  section("info", info_);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      args->smoke = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (a == "--data") {
      args->data = v;
    } else if (a == "--spans") {
      args->spans = v;
    } else if (a == "--row") {
      args->row = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--data DIR] [--spans FILE] [--row FILE] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Bench bench(args, *spec);
  const bool ok = bench.Run();
  if (ok) {
    bench.Print();
  } else {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", spec->name,
                 bench.error().c_str());
  }
  if (!args.row.empty() && !bench.WriteRow(args.row)) {
    std::fprintf(stderr, "cannot write %s\n", args.row.c_str());
  }
  if (!args.spans.empty() && !bench.WriteSpans(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
  }
  std::printf("%s\n", bench.ResultLine(ok).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
