// Out-of-core benchmark: the paper's access mixes against REAL device I/O.
//
// Every number in the paper-table benches flows through the in-memory
// arena (mem) or the kernel page cache (mmap) — a "miss" never touches a
// device, so the Equation-1 model (disk_timing.h) has never been compared
// against hardware. This bench scales a volume past the buffer pool (and
// ideally past memory), replays Table 5/6-style access mixes over the mmap
// and O_DIRECT backends, and reports modelled-vs-measured milliseconds per
// mix — the column that validates (or falsifies) TimedVolume's model.
//
// Access mixes (shaped after the paper's storage models' I/O patterns):
//   seq_scan_run32      sequential scan, 32-page prefetch runs (query 3)
//   fetch_nsm_calls     object fetch as 8 single-page calls (NSM-like:
//                       ~1 page per call, call-dominated)
//   fetch_dasdbs_chained object fetch as root fix + one chained call for
//                       the other 7 pages (DASDBS-like: 2 calls/object)
//   fetch_dsm_run       object fetch as one contiguous 8-page run
//                       (clustered, transfer-dominated)
//   hot_cold_fixes      Table 6-style fix mix: 80% of fixes in a hot 10%
//                       region, 20% uniform (hit/miss blend through LRU)
//
// The "model ranking" the paper cares about is the ORDER of the three
// object-fetch mixes: Eq. 1 says calls dominate (d1 >> d2), so NSM-like
// fetching must be slowest per object. The JSON reports the modelled order
// next to the measured order per backend.
//
// Memory-limit handling (documented best-effort): --mem-limit-mb (or the
// detected cgroup/total-RAM limit) is reported and compared against
// --data-mb. The bench cannot evict the kernel page cache without
// privileges, so mmap rows are only honest when data >> limit; the direct
// rows bypass the cache entirely and are honest at ANY size — that is the
// point of the backend. The buffer pool is always sized at 1/16 of the
// data, so pool misses are real in every configuration.
//
// PR 8 additions (the per-thread-ring rework, proven end to end):
//
//   --threads K     per-thread-scaling section over the direct backend:
//                   1/2/4/8 concurrent submitters (capped at K), each
//                   running its own completion-driven PrefetchStream, and
//                   so its own io_uring ring, over ONE shared sharded
//                   buffer pool — the JSON rows show how device
//                   throughput scales with submitters at equal work.
//   --models        loads the paper's FIVE storage models through the real
//                   StorageEngine on the direct backend (pool sized far
//                   below the data) and replays the query suite; the same
//                   suite runs on the mem backend as the in-memory
//                   expectation, and the Table 4/5/6 fetch-shape rankings
//                   (query 1b page I/Os, I/O calls, buffer fixes per
//                   object) must reproduce out-of-core.
//   --model-objects N / --budget-multiple M
//                   size the model database directly (N objects) or as M x
//                   the detected memory budget (dedicated out-of-core
//                   runs; the CI smoke stays tiny).
//   --gate-ranking  exit 1 when the direct backend's measured fetch-shape
//                   ranking diverges from the Eq.-1 modelled ranking, or
//                   when the out-of-core model rankings diverge from the
//                   in-memory expectation (skip-tolerant: a filesystem
//                   without O_DIRECT gates nothing).
//   --compare REF.json --max-regress PCT
//                   gate measured_ms of every (mix, backend) row against a
//                   committed reference — only meaningful on a runner
//                   marked stable (ci/check.sh engages it behind
//                   STARFISH_OUTOFCORE_STABLE=1).
//
// Usage:
//   bench_outofcore [--backend mmap|direct|both] [--data-mb N]
//                   [--mem-limit-mb N] [--page-size N] [--dir PATH]
//                   [--tiny] [--keep] [--threads K] [--models]
//                   [--model-objects N] [--budget-multiple M]
//                   [--gate-ranking] [--compare REF.json]
//                   [--max-regress PCT]
//
//   --tiny    16 MiB of data (CI smoke); default is 256 MiB.
//   --keep    leave the volume directories behind for inspection.
//
// Writes BENCH_outofcore.json. Exits 0 with "direct_skipped": true when the
// filesystem rejects O_DIRECT (tmpfs/overlayfs) so CI can archive the mmap
// numbers unconditionally.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/generator.h"
#include "benchmark/queries.h"
#include "buffer/buffer_manager.h"
#include "disk/direct_volume.h"
#include "disk/disk_timing.h"
#include "disk/volume.h"
#include "models/model_factory.h"
#include "storage/storage_engine.h"
#include "util/aligned_buffer.h"
#include "util/random.h"

namespace starfish {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kPagesPerObject = 8;

struct Config {
  std::string backend = "both";
  uint64_t data_mb = 256;
  uint64_t mem_limit_mb = 0;  // 0 = detect
  uint32_t page_size = 4096;
  std::string dir = "bench_outofcore_volume";
  bool keep = false;
  bool tiny = false;
  uint32_t threads = 0;        // 0 = no thread-scaling section
  bool models = false;         // five-model out-of-core section
  uint64_t model_objects = 0;  // 0 = auto (tiny -> 300, else 1500)
  double budget_multiple = 0;  // >0: size the model db at M x mem budget
  bool gate_ranking = false;
  std::string compare;  // reference JSON for the measured_ms gate
  double max_regress_pct = 25.0;
};

struct MixResult {
  std::string mix;
  std::string backend;
  uint64_t read_calls = 0;
  uint64_t pages_read = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  double measured_ms = 0;
  double modelled_ms = 0;
  double objects = 0;  ///< work units (objects / pages / fixes)
};

void Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_outofcore: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

/// First number in `path`, or 0 when absent/unparseable ("max" -> 0).
uint64_t ReadNumberFile(const char* path) {
  std::ifstream in(path);
  uint64_t value = 0;
  if (in && (in >> value)) return value;
  return 0;
}

/// Best-effort memory budget of this process: cgroup v2, cgroup v1, then
/// MemTotal. Returns bytes and names the source.
uint64_t DetectMemLimit(std::string* source) {
  if (uint64_t v2 = ReadNumberFile("/sys/fs/cgroup/memory.max"); v2 > 0) {
    *source = "cgroup v2 memory.max";
    return v2;
  }
  if (uint64_t v1 =
          ReadNumberFile("/sys/fs/cgroup/memory/memory.limit_in_bytes");
      v1 > 0 && v1 < (uint64_t{1} << 60)) {
    *source = "cgroup v1 limit_in_bytes";
    return v1;
  }
  std::ifstream meminfo("/proc/meminfo");
  std::string key;
  uint64_t kb = 0;
  while (meminfo >> key >> kb) {
    if (key == "MemTotal:") {
      *source = "/proc/meminfo MemTotal";
      return kb * 1024;
    }
    meminfo.ignore(1024, '\n');
  }
  *source = "unknown (no cgroup, no /proc/meminfo)";
  return 0;
}

/// Fills the volume with `n_pages` of patterned data, 64-page runs.
void LoadVolume(Volume* disk, uint64_t n_pages, uint32_t page_size) {
  const uint32_t run = 64;
  AlignedBuffer chunk;
  if (!chunk.Reserve(static_cast<size_t>(run) * page_size, 4096)) {
    Fatal("load", Status::ResourceExhausted("chunk alloc"));
  }
  for (uint64_t first = 0; first < n_pages; first += run) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(run, n_pages - first));
    if (auto id = disk->AllocateRun(n); !id.ok()) Fatal("alloc", id.status());
    for (uint32_t p = 0; p < n; ++p) {
      std::memset(chunk.data() + static_cast<size_t>(p) * page_size,
                  static_cast<int>('A' + (first + p) % 23), page_size);
    }
    if (auto st = disk->WriteRun(static_cast<PageId>(first), n, chunk.data());
        !st.ok()) {
      Fatal("load write", st);
    }
  }
  if (auto st = disk->Sync(); !st.ok()) Fatal("load sync", st);
}

/// One access mix over an already-loaded volume; returns counters + wall ms.
template <typename Body>
MixResult RunMix(const std::string& mix, const std::string& backend,
                 BufferManager* bm, Volume* disk, double objects,
                 const Body& body) {
  if (auto st = bm->DropAll(); !st.ok()) Fatal("drop", st);
  disk->ResetStats();
  bm->ResetStats();
  const auto start = Clock::now();
  body();
  const auto stop = Clock::now();
  const IoStats io = disk->stats();
  const BufferStats buffer = bm->stats();
  MixResult r;
  r.mix = mix;
  r.backend = backend;
  r.read_calls = io.read_calls;
  r.pages_read = io.pages_read;
  r.buffer_hits = buffer.hits;
  r.buffer_misses = buffer.misses;
  r.measured_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  r.modelled_ms = LinearTimingModel{}.Cost(io);  // the paper's Eq.-1 disk
  r.objects = objects;
  return r;
}

void FixOnce(BufferManager* bm, PageId id) {
  auto guard = bm->Fix(id);
  if (!guard.ok()) Fatal("fix", guard.status());
}

std::vector<MixResult> RunBackend(const std::string& backend, Volume* disk,
                                  uint64_t n_pages, uint32_t frames) {
  BufferOptions buffer_options;
  buffer_options.frame_count = frames;
  buffer_options.frame_alignment = disk->io_buffer_alignment();
  BufferManager bm(disk, buffer_options);

  const uint64_t n_objects = n_pages / kPagesPerObject;
  // Touch ~1/4 of the objects per fetch mix, in a deterministic shuffle.
  const uint64_t n_fetch = std::max<uint64_t>(1, n_objects / 4);
  std::vector<MixResult> results;

  results.push_back(RunMix(
      "seq_scan_run32", backend, &bm, disk, static_cast<double>(n_pages),
      [&] {
        std::vector<PageId> run;
        for (uint64_t first = 0; first < n_pages; first += 32) {
          const uint32_t n =
              static_cast<uint32_t>(std::min<uint64_t>(32, n_pages - first));
          run.clear();
          for (uint32_t i = 0; i < n; ++i) {
            run.push_back(static_cast<PageId>(first + i));
          }
          if (auto st = bm.Prefetch(run, PrefetchMode::kContiguousRuns);
              !st.ok()) {
            Fatal("prefetch", st);
          }
          for (PageId id : run) FixOnce(&bm, id);
        }
      }));

  // The three object-fetch shapes share one deterministic object sequence,
  // so the mixes differ ONLY in how the same pages are grouped into calls.
  const auto object_at = [n_objects](Rng& rng) {
    return static_cast<PageId>(rng.Uniform(n_objects) * kPagesPerObject);
  };

  results.push_back(RunMix(
      "fetch_nsm_calls", backend, &bm, disk, static_cast<double>(n_fetch),
      [&] {
        Rng rng(42);
        for (uint64_t i = 0; i < n_fetch; ++i) {
          const PageId root = object_at(rng);
          for (uint32_t p = 0; p < kPagesPerObject; ++p) {
            FixOnce(&bm, root + p);  // 8 single-page read calls
          }
        }
      }));

  results.push_back(RunMix(
      "fetch_dasdbs_chained", backend, &bm, disk,
      static_cast<double>(n_fetch), [&] {
        Rng rng(42);
        std::vector<PageId> rest;
        for (uint64_t i = 0; i < n_fetch; ++i) {
          const PageId root = object_at(rng);
          FixOnce(&bm, root);  // root page: one call
          rest.clear();
          for (uint32_t p = 1; p < kPagesPerObject; ++p) {
            rest.push_back(root + p);
          }
          if (auto st = bm.Prefetch(rest, PrefetchMode::kChained); !st.ok()) {
            Fatal("prefetch", st);
          }
          for (PageId id : rest) FixOnce(&bm, id);
        }
      }));

  results.push_back(RunMix(
      "fetch_dsm_run", backend, &bm, disk, static_cast<double>(n_fetch),
      [&] {
        Rng rng(42);
        std::vector<PageId> all;
        for (uint64_t i = 0; i < n_fetch; ++i) {
          const PageId root = object_at(rng);
          all.clear();
          for (uint32_t p = 0; p < kPagesPerObject; ++p) {
            all.push_back(root + p);
          }
          if (auto st = bm.Prefetch(all, PrefetchMode::kContiguousRuns);
              !st.ok()) {
            Fatal("prefetch", st);
          }
          for (PageId id : all) FixOnce(&bm, id);
        }
      }));

  const uint64_t n_fixes = std::max<uint64_t>(1000, n_pages / 2);
  results.push_back(RunMix(
      "hot_cold_fixes", backend, &bm, disk, static_cast<double>(n_fixes),
      [&] {
        Rng rng(7);
        const uint64_t hot_span = std::max<uint64_t>(1, n_pages / 10);
        for (uint64_t i = 0; i < n_fixes; ++i) {
          const bool hot = rng.NextDouble() < 0.8;
          const PageId id = static_cast<PageId>(
              hot ? rng.Uniform(hot_span)
                  : rng.Uniform(n_pages));
          FixOnce(&bm, id);
        }
      }));

  return results;
}

/// Object-fetch mixes ordered slowest-first by `metric` — the "ranking".
std::vector<std::string> Ranking(const std::vector<MixResult>& results,
                                 double MixResult::*metric) {
  std::vector<const MixResult*> fetches;
  for (const MixResult& r : results) {
    if (r.mix.rfind("fetch_", 0) == 0) fetches.push_back(&r);
  }
  std::sort(fetches.begin(), fetches.end(),
            [metric](const MixResult* a, const MixResult* b) {
              return a->*metric > b->*metric;
            });
  std::vector<std::string> order;
  for (const MixResult* r : fetches) order.push_back(r->mix);
  return order;
}

// ---------------------------------------------------------------------------
// Per-thread-scaling section (--threads): N submitters, each driving its own
// completion-driven PrefetchStream over one shared sharded pool, on the
// direct backend (one io_uring ring per submitting thread).
// ---------------------------------------------------------------------------

struct ScalingRow {
  uint32_t threads = 0;
  double measured_ms = 0;
  double pages_per_sec = 0;
  uint64_t read_calls = 0;
  uint64_t pages_read = 0;
  bool async_active = false;  ///< any stream ran the submit/complete split
};

/// Runs `body(thread_index)` on `threads` threads behind a start barrier;
/// returns wall seconds.
template <typename Body>
double TimedThreads(uint32_t threads, Body&& body) {
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  while (ready.load() != threads) {
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<ScalingRow> RunThreadScaling(const Config& config,
                                         uint64_t n_pages, uint32_t frames,
                                         bool* skipped,
                                         std::string* skip_reason) {
  std::vector<ScalingRow> rows;
  const std::string dir = config.dir + "_scaling";
  std::filesystem::remove_all(dir);

  // Load once; the scaling rows run on a fresh open of the same data.
  {
    auto disk_or =
        DirectVolume::Open(dir, DiskOptions{config.page_size, 4u << 20});
    if (!disk_or.ok()) {
      if (disk_or.status().IsNotSupported()) {
        *skipped = true;
        *skip_reason = disk_or.status().ToString();
        return rows;
      }
      Fatal("scaling volume", disk_or.status());
    }
    LoadVolume(disk_or.value().get(), n_pages, config.page_size);
  }

  // Enough work per row to amortize ring setup and pool warm-up: every
  // object about twice, in a pseudo-random order shared by all rows (equal
  // work per configuration is what makes the rows comparable).
  const uint64_t n_objects = n_pages / kPagesPerObject;
  const uint64_t n_fetch = std::max<uint64_t>(256, n_objects * 2);

  {
    auto disk_or =
        DirectVolume::Open(dir, DiskOptions{config.page_size, 4u << 20});
    if (!disk_or.ok()) Fatal("scaling reopen", disk_or.status());
    auto disk = std::move(disk_or).value();

    BufferOptions buffer_options;
    buffer_options.frame_count = frames;
    buffer_options.frame_alignment = disk->io_buffer_alignment();
    buffer_options.shard_count = 64;  // concurrent mode: per-shard mutexes
    BufferManager bm(disk.get(), buffer_options);

    for (uint32_t t : {1u, 2u, 4u, 8u}) {
      if (t > std::max(config.threads, 1u)) break;
      if (auto st = bm.DropAll(); !st.ok()) Fatal("scaling drop", st);
      disk->ResetStats();
      std::atomic<uint32_t> async_streams{0};

      // Fixed total work split across the submitters: each thread fetches
      // its interleaved share of a deterministic pseudo-random object
      // sequence as DASDBS-like 8-page chained batches.
      const double seconds = TimedThreads(t, [&](uint32_t thread_index) {
        PrefetchStream stream(&bm, /*depth=*/4);
        if (stream.async_active()) {
          async_streams.fetch_add(1, std::memory_order_relaxed);
        }
        std::vector<PageId> ids(kPagesPerObject);
        for (uint64_t i = thread_index; i < n_fetch; i += t) {
          const PageId root = static_cast<PageId>(
              (i * 2654435761ull % n_objects) * kPagesPerObject);
          for (uint32_t p = 0; p < kPagesPerObject; ++p) ids[p] = root + p;
          if (auto st = stream.Push(ids); !st.ok()) Fatal("push", st);
        }
        if (auto st = stream.Drain(); !st.ok()) Fatal("drain", st);
      });

      const IoStats io = disk->stats();
      ScalingRow row;
      row.threads = t;
      row.measured_ms = seconds * 1e3;
      row.pages_per_sec = static_cast<double>(io.pages_read) / seconds;
      row.read_calls = io.read_calls;
      row.pages_read = io.pages_read;
      row.async_active = async_streams.load() > 0;
      rows.push_back(row);
    }
  }

  if (!config.keep) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Five-model section (--models): the actual storage models through the real
// StorageEngine on the direct backend, pool far below the data, vs the same
// suite on the mem backend — the Table 4/5/6 fetch-shape rankings must
// survive going out of core.
// ---------------------------------------------------------------------------

struct ModelRow {
  std::string model;
  std::string backend;  ///< "mem" (expectation) | "direct" (out-of-core)
  double load_ms = 0;
  double suite_ms = 0;     ///< measured wall ms of the full query suite
  double modelled_ms = 0;  ///< Eq.-1 cost of the suite's IoStats delta
  uint64_t suite_calls = 0;
  uint64_t suite_pages = 0;
  // The fetch shape of query 1b (retrieve one object by key — the only
  // single-object fetch every model answers): the paper's Table 4/5/6
  // columns, per object.
  double q1b_pages = 0;
  double q1b_calls = 0;
  double q1b_fixes = 0;
};

Result<ModelRow> RunOneModel(StorageModelKind kind, VolumeKind backend,
                             const bench::BenchmarkDatabase& db,
                             const std::string& dir, uint32_t frames,
                             const bench::QueryConfig& query) {
  StorageEngineOptions engine_options;
  engine_options.backend = backend;
  engine_options.path = dir;
  engine_options.buffer.frame_count = frames;
  engine_options.buffer.frame_alignment = 4096;
  STARFISH_ASSIGN_OR_RETURN(std::unique_ptr<StorageEngine> engine,
                            StorageEngine::Open(std::move(engine_options)));

  ModelConfig model_config;
  model_config.schema = db.schema();
  model_config.key_attr_index = 0;
  STARFISH_ASSIGN_OR_RETURN(std::unique_ptr<StorageModel> model,
                            CreateStorageModel(kind, engine.get(),
                                               model_config));
  const auto load_start = Clock::now();
  STARFISH_RETURN_NOT_OK(db.LoadInto(model.get(), engine.get()));
  const double load_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - load_start)
                             .count();

  bench::QueryRunner runner(model.get(), engine.get(), &db, query);
  const IoStats io_before = engine->stats().io;
  const auto suite_start = Clock::now();
  STARFISH_ASSIGN_OR_RETURN(bench::QuerySuiteResults suite, runner.RunAll());
  const double suite_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - suite_start)
                              .count();
  const IoStats io = engine->stats().io.Since(io_before);

  ModelRow row;
  row.model = ToString(kind);
  row.backend = backend == VolumeKind::kDirect ? "direct" : "mem";
  row.load_ms = load_ms;
  row.suite_ms = suite_ms;
  row.modelled_ms = LinearTimingModel{}.Cost(io);
  row.suite_calls = io.TotalCalls();
  row.suite_pages = io.TotalPages();
  row.q1b_pages = suite.q1b.Pages();
  row.q1b_calls = suite.q1b.Calls();
  row.q1b_fixes = suite.q1b.Fixes();
  return row;
}

/// Model names ordered worst-first (descending) by `metric` — the Table
/// 4/5/6 ranking for one backend.
std::vector<std::string> ModelRanking(const std::vector<ModelRow>& rows,
                                      const std::string& backend,
                                      double ModelRow::*metric) {
  std::vector<const ModelRow*> picked;
  for (const ModelRow& r : rows) {
    if (r.backend == backend) picked.push_back(&r);
  }
  std::stable_sort(picked.begin(), picked.end(),
                   [metric](const ModelRow* a, const ModelRow* b) {
                     return a->*metric > b->*metric;
                   });
  std::vector<std::string> order;
  for (const ModelRow* r : picked) order.push_back(r->model);
  return order;
}

std::vector<ModelRow> RunModels(const Config& config, uint64_t mem_limit,
                                bool* skipped, std::string* skip_reason) {
  std::vector<ModelRow> rows;

  bench::GeneratorConfig gen;
  gen.n_objects = config.model_objects > 0 ? config.model_objects
                  : config.tiny            ? 300
                                           : 1500;
  gen.seed = 4242;
  if (config.budget_multiple > 0) {
    // Probe a small generation for the drawn object footprint, then size
    // the database at the requested multiple of the memory budget.
    bench::GeneratorConfig probe = gen;
    probe.n_objects = 64;
    auto probe_or = bench::BenchmarkDatabase::Generate(probe);
    if (!probe_or.ok()) Fatal("probe generate", probe_or.status());
    const double per_object =
        std::max(1.0, probe_or.value().stats().avg_object_bytes);
    gen.n_objects = static_cast<uint64_t>(
        config.budget_multiple * static_cast<double>(mem_limit) / per_object);
    std::printf("models: %.1fx memory budget -> %" PRIu64
                " objects (~%.0f B each)\n",
                config.budget_multiple, gen.n_objects, per_object);
  }
  auto db_or = bench::BenchmarkDatabase::Generate(gen);
  if (!db_or.ok()) Fatal("generate model db", db_or.status());
  const bench::BenchmarkDatabase db = std::move(db_or).value();

  // Pool far below the data in every configuration (frames ~ objects/4
  // pages), so the direct rows miss for real; the suite shrinks in tiny
  // mode to keep the CI smoke quick on a cold device.
  const uint32_t frames = static_cast<uint32_t>(
      std::max<uint64_t>(64, gen.n_objects / 4));
  bench::QueryConfig query;
  if (config.tiny) {
    query.q1a_samples = 20;
    query.q2a_samples = 5;
    query.loops = 30;
  }

  for (const StorageModelKind kind : AllStorageModelKinds()) {
    // In-memory expectation first: the counters the paper's tables rank.
    auto mem_or = RunOneModel(kind, VolumeKind::kMem, db, "", frames, query);
    if (!mem_or.ok()) Fatal("model (mem)", mem_or.status());
    rows.push_back(std::move(mem_or).value());

    const std::string dir =
        config.dir + "_model_" + rows.back().model;
    std::filesystem::remove_all(dir);
    auto direct_or =
        RunOneModel(kind, VolumeKind::kDirect, db, dir, frames, query);
    if (!direct_or.ok()) {
      if (direct_or.status().IsNotSupported()) {
        *skipped = true;
        *skip_reason = direct_or.status().ToString();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        return rows;
      }
      Fatal("model (direct)", direct_or.status());
    }
    rows.push_back(std::move(direct_or).value());
    if (!config.keep) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  return rows;
}

void PrintResults(const std::vector<MixResult>& results) {
  std::printf("%-22s %-7s %10s %10s %8s %8s %12s %12s %8s\n", "MIX",
              "BACKEND", "calls", "pages", "hits", "misses", "measured ms",
              "modelled ms", "ratio");
  for (const MixResult& r : results) {
    std::printf("%-22s %-7s %10" PRIu64 " %10" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %12.2f %12.2f %8.3f\n",
                r.mix.c_str(), r.backend.c_str(), r.read_calls, r.pages_read,
                r.buffer_hits, r.buffer_misses, r.measured_ms, r.modelled_ms,
                r.modelled_ms > 0 ? r.measured_ms / r.modelled_ms : 0.0);
  }
}

void AppendJsonList(std::string* out, const std::vector<std::string>& items) {
  out->push_back('[');
  for (size_t i = 0; i < items.size(); ++i) {
    *out += "\"" + items[i] + "\"";
    if (i + 1 < items.size()) *out += ", ";
  }
  out->push_back(']');
}

int Run(const Config& config) {
  const uint32_t page_size = config.page_size;
  const uint64_t data_bytes = config.data_mb << 20;
  const uint64_t n_pages = data_bytes / page_size;
  const uint32_t frames = static_cast<uint32_t>(
      std::max<uint64_t>(64, n_pages / 16));  // 16x out-of-core vs the pool

  std::string limit_source;
  uint64_t mem_limit = config.mem_limit_mb > 0
                           ? config.mem_limit_mb << 20
                           : DetectMemLimit(&limit_source);
  if (config.mem_limit_mb > 0) limit_source = "--mem-limit-mb";

  std::printf("out-of-core bench: %" PRIu64 " MiB data, %" PRIu64
              " pages of %u B, pool %u frames (%.1f MiB)\n",
              config.data_mb, n_pages, page_size,
              frames, frames * static_cast<double>(page_size) / (1 << 20));
  std::printf("memory budget: %.0f MiB (%s)\n",
              mem_limit / double(1 << 20), limit_source.c_str());
  const bool cache_resident = data_bytes < mem_limit;
  if (cache_resident) {
    std::printf("NOTE: data fits the memory budget -> mmap misses are "
                "page-cache hits, not device reads. The direct rows below "
                "are real device I/O regardless (that is the point).\n");
  }

  std::vector<MixResult> results;
  bool direct_skipped = false;
  std::string direct_skip_reason;

  for (const std::string backend : {std::string("mmap"),
                                    std::string("direct")}) {
    if (config.backend != "both" && config.backend != backend) continue;
    const std::string dir = config.dir + "_" + backend;
    std::filesystem::remove_all(dir);
    Result<std::unique_ptr<Volume>> disk_or =
        backend == "mmap"
            ? CreateVolume(VolumeKind::kMmap, DiskOptions{page_size, 4u << 20},
                           dir)
            : CreateVolume(VolumeKind::kDirect,
                           DiskOptions{page_size, 4u << 20}, dir);
    if (!disk_or.ok()) {
      if (backend == "direct" && disk_or.status().IsNotSupported()) {
        direct_skipped = true;
        direct_skip_reason = disk_or.status().ToString();
        std::printf("\ndirect backend skipped: %s\n",
                    direct_skip_reason.c_str());
        continue;
      }
      Fatal("create volume", disk_or.status());
    }
    auto disk = std::move(disk_or).value();

    std::printf("\nloading %s volume at %s ...\n", backend.c_str(),
                dir.c_str());
    const auto load_start = Clock::now();
    LoadVolume(disk.get(), n_pages, page_size);
    const double load_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - load_start)
                               .count();
    std::printf("loaded in %.0f ms (%.1f MiB/s)\n", load_ms,
                config.data_mb / (load_ms / 1000.0));

    auto rows = RunBackend(backend, disk.get(), n_pages, frames);
    results.insert(results.end(), rows.begin(), rows.end());

    disk.reset();
    if (!config.keep) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  std::printf("\n");
  PrintResults(results);

  // --threads: the rework's scaling proof (direct backend only).
  std::vector<ScalingRow> scaling;
  bool scaling_skipped = false;
  std::string scaling_skip_reason;
  if (config.threads > 0) {
    std::printf("\nper-thread scaling (direct backend, %u-deep "
                "PrefetchStream per submitter)\n",
                4u);
    scaling = RunThreadScaling(config, n_pages, frames, &scaling_skipped,
                               &scaling_skip_reason);
    if (scaling_skipped) {
      std::printf("scaling section skipped: %s\n",
                  scaling_skip_reason.c_str());
      direct_skipped = true;
      if (direct_skip_reason.empty()) direct_skip_reason = scaling_skip_reason;
    } else {
      std::printf("%8s %12s %14s %10s %6s\n", "threads", "measured ms",
                  "pages/sec", "pages", "async");
      for (const ScalingRow& row : scaling) {
        std::printf("%8u %12.2f %14.0f %10" PRIu64 " %6s\n", row.threads,
                    row.measured_ms,
                    row.pages_per_sec, row.pages_read,
                    row.async_active ? "yes" : "no");
      }
    }
  }

  // --models: the five storage models, in-memory expectation vs the real
  // out-of-core run.
  std::vector<ModelRow> model_rows;
  bool models_skipped = false;
  std::string models_skip_reason;
  if (config.models) {
    std::printf("\nfive-model section (query suite, mem expectation vs "
                "direct out-of-core)\n");
    model_rows =
        RunModels(config, mem_limit, &models_skipped, &models_skip_reason);
    if (models_skipped) {
      std::printf("model section skipped: %s\n", models_skip_reason.c_str());
      direct_skipped = true;
      if (direct_skip_reason.empty()) direct_skip_reason = models_skip_reason;
    } else {
      std::printf("%-12s %-7s %9s %10s %12s %11s %11s %11s\n", "MODEL",
                  "BACKEND", "load ms", "suite ms", "modelled ms",
                  "q1b pages", "q1b calls", "q1b fixes");
      for (const ModelRow& row : model_rows) {
        std::printf("%-12s %-7s %9.0f %10.1f %12.1f %11.2f %11.2f %11.2f\n",
                    row.model.c_str(), row.backend.c_str(), row.load_ms,
                    row.suite_ms, row.modelled_ms, row.q1b_pages,
                    row.q1b_calls, row.q1b_fixes);
      }
    }
  }

  // Ranking: does the Eq.-1 ordering of the object-fetch shapes survive
  // measurement? (The paper's d1 >> d2 says call-heavy fetching loses.)
  std::string json;
  json += "{\n  \"config\": {";
  json += "\"data_mb\": " + std::to_string(config.data_mb);
  json += ", \"page_size\": " + std::to_string(page_size);
  json += ", \"pool_frames\": " + std::to_string(frames);
  json += ", \"mem_limit_mb\": " + std::to_string(mem_limit >> 20);
  json += ", \"mem_limit_source\": \"" + limit_source + "\"";
  json += std::string(", \"mmap_cache_resident\": ") +
          (cache_resident ? "true" : "false");
  json += "},\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const MixResult& r = results[i];
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"mix\": \"%s\", \"backend\": \"%s\", \"read_calls\": %" PRIu64
        ", \"pages_read\": %" PRIu64 ", \"buffer_hits\": %" PRIu64
        ", \"buffer_misses\": %" PRIu64
        ", \"measured_ms\": %.3f, \"modelled_ms\": %.3f, "
        "\"measured_over_modelled\": %.4f, \"work_units\": %.0f}%s\n",
        r.mix.c_str(), r.backend.c_str(), r.read_calls, r.pages_read,
        r.buffer_hits, r.buffer_misses, r.measured_ms, r.modelled_ms,
        r.modelled_ms > 0 ? r.measured_ms / r.modelled_ms : 0.0, r.objects,
        i + 1 < results.size() ? "," : "");
    json += row;
  }
  json += "  ],\n  \"ranking\": {";
  bool first_ranking = true;
  for (const std::string backend : {std::string("mmap"),
                                    std::string("direct")}) {
    std::vector<MixResult> rows;
    for (const MixResult& r : results) {
      if (r.backend == backend) rows.push_back(r);
    }
    if (rows.empty()) continue;
    if (!first_ranking) json += ", ";
    first_ranking = false;
    json += "\"modelled_" + backend + "\": ";
    AppendJsonList(&json, Ranking(rows, &MixResult::modelled_ms));
    json += ", \"measured_" + backend + "\": ";
    AppendJsonList(&json, Ranking(rows, &MixResult::measured_ms));
  }
  json += "},\n";
  if (!scaling.empty()) {
    json += "  \"thread_scaling\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i) {
      const ScalingRow& row = scaling[i];
      char buf[384];
      std::snprintf(buf, sizeof(buf),
                    "    {\"threads\": %u, "
                    "\"measured_ms\": %.3f, \"pages_per_sec\": %.0f, "
                    "\"read_calls\": %" PRIu64 ", \"pages_read\": %" PRIu64
                    ", \"async_prefetch\": %s}%s\n",
                    row.threads, row.measured_ms,
                    row.pages_per_sec, row.read_calls, row.pages_read,
                    row.async_active ? "true" : "false",
                    i + 1 < scaling.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n";
  }
  if (!model_rows.empty() && !models_skipped) {
    json += "  \"models\": [\n";
    for (size_t i = 0; i < model_rows.size(); ++i) {
      const ModelRow& row = model_rows[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"model\": \"%s\", \"backend\": \"%s\", "
                    "\"load_ms\": %.1f, \"suite_ms\": %.2f, "
                    "\"modelled_ms\": %.2f, \"suite_calls\": %" PRIu64
                    ", \"suite_pages\": %" PRIu64
                    ", \"q1b_pages\": %.3f, \"q1b_calls\": %.3f, "
                    "\"q1b_fixes\": %.3f}%s\n",
                    row.model.c_str(), row.backend.c_str(), row.load_ms,
                    row.suite_ms, row.modelled_ms, row.suite_calls,
                    row.suite_pages, row.q1b_pages, row.q1b_calls,
                    row.q1b_fixes, i + 1 < model_rows.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n  \"model_ranking\": {";
    bool first = true;
    for (const char* backend : {"mem", "direct"}) {
      struct Metric {
        const char* name;
        double ModelRow::*field;
      } metrics[] = {{"pages", &ModelRow::q1b_pages},
                     {"calls", &ModelRow::q1b_calls},
                     {"fixes", &ModelRow::q1b_fixes}};
      for (const Metric& metric : metrics) {
        if (!first) json += ", ";
        first = false;
        json += std::string("\"") + backend + "_by_" + metric.name + "\": ";
        AppendJsonList(&json, ModelRanking(model_rows, backend, metric.field));
      }
    }
    json += "},\n";
  }
  json += std::string("  \"direct_skipped\": ") +
          (direct_skipped ? "true" : "false") + "\n}\n";

  std::ofstream out("BENCH_outofcore.json");
  out << json;
  out.close();
  std::printf("\nwrote BENCH_outofcore.json\n");

  for (const std::string backend : {std::string("mmap"),
                                    std::string("direct")}) {
    std::vector<MixResult> rows;
    for (const MixResult& r : results) {
      if (r.backend == backend) rows.push_back(r);
    }
    if (rows.empty()) continue;
    const auto modelled = Ranking(rows, &MixResult::modelled_ms);
    const auto measured = Ranking(rows, &MixResult::measured_ms);
    std::printf("%s fetch-shape ranking (slowest first): modelled [",
                backend.c_str());
    for (const auto& m : modelled) std::printf(" %s", m.c_str());
    std::printf(" ]  measured [");
    for (const auto& m : measured) std::printf(" %s", m.c_str());
    std::printf(" ]%s\n", modelled == measured ? "  (model ranking holds)"
                                               : "  (RANKING SHIFTED)");
  }

  int failures = 0;

  // --gate-ranking: the direct backend's measured ordering must agree with
  // the Eq.-1 modelled ordering (the paper's claim), and the out-of-core
  // model rankings must reproduce the in-memory expectation. A filesystem
  // without O_DIRECT gates nothing — there is nothing honest to gate.
  if (config.gate_ranking) {
    std::vector<MixResult> direct_rows;
    for (const MixResult& r : results) {
      if (r.backend == "direct") direct_rows.push_back(r);
    }
    if (direct_rows.empty()) {
      std::printf("\nranking gate: no direct rows (skipped) — not gated\n");
    } else {
      const auto modelled = Ranking(direct_rows, &MixResult::modelled_ms);
      const auto measured = Ranking(direct_rows, &MixResult::measured_ms);
      if (modelled != measured) {
        std::fprintf(stderr,
                     "ranking gate: direct fetch-shape ranking diverged "
                     "from the Eq.-1 model\n");
        ++failures;
      } else {
        std::printf("\nranking gate: direct fetch-shape ranking matches "
                    "the model\n");
      }
    }
    if (!model_rows.empty() && !models_skipped) {
      struct Metric {
        const char* name;
        double ModelRow::*field;
      } metrics[] = {{"pages (Table 4)", &ModelRow::q1b_pages},
                     {"calls (Table 5)", &ModelRow::q1b_calls},
                     {"fixes (Table 6)", &ModelRow::q1b_fixes}};
      for (const Metric& metric : metrics) {
        const auto expected = ModelRanking(model_rows, "mem", metric.field);
        const auto got = ModelRanking(model_rows, "direct", metric.field);
        if (expected != got) {
          std::fprintf(stderr,
                       "ranking gate: out-of-core model ranking by %s "
                       "diverged from the in-memory expectation\n",
                       metric.name);
          ++failures;
        } else {
          std::printf("ranking gate: model ranking by %s reproduces "
                      "out-of-core\n",
                      metric.name);
        }
      }
    }
  }

  // --compare: measured_ms per (mix, backend) row against a committed
  // reference — engaged by CI only on runners marked stable.
  if (!config.compare.empty()) {
    std::ifstream ref(config.compare);
    if (!ref) {
      std::fprintf(stderr, "bench_outofcore: cannot read %s\n",
                   config.compare.c_str());
      return 1;
    }
    std::string line;
    std::vector<std::pair<std::string, double>> reference;  // mix@backend
    while (std::getline(ref, line)) {
      const size_t mix_key = line.find("\"mix\": \"");
      const size_t backend_key = line.find("\"backend\": \"");
      const size_t ms_key = line.find("\"measured_ms\": ");
      if (mix_key == std::string::npos || backend_key == std::string::npos ||
          ms_key == std::string::npos) {
        continue;
      }
      const size_t mix_begin = mix_key + std::strlen("\"mix\": \"");
      const size_t backend_begin =
          backend_key + std::strlen("\"backend\": \"");
      reference.emplace_back(
          line.substr(mix_begin, line.find('"', mix_begin) - mix_begin) +
              "@" +
              line.substr(backend_begin,
                          line.find('"', backend_begin) - backend_begin),
          std::atof(line.c_str() + ms_key + std::strlen("\"measured_ms\": ")));
    }
    std::printf("\nmeasured-ms gate vs %s (bound +%.0f%%)\n",
                config.compare.c_str(), config.max_regress_pct);
    for (const MixResult& r : results) {
      const std::string key = r.mix + "@" + r.backend;
      for (const auto& [ref_key, ref_ms] : reference) {
        if (ref_key != key || ref_ms <= 0) continue;
        const double delta_pct = (r.measured_ms - ref_ms) / ref_ms * 100.0;
        const bool fail = delta_pct > config.max_regress_pct;
        std::printf("%-32s %10.2f ms %+8.1f%%%s\n", key.c_str(),
                    r.measured_ms, delta_pct, fail ? "  <-- REGRESSION" : "");
        if (fail) ++failures;
        break;
      }
    }
  }

  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace starfish

int main(int argc, char** argv) {
  starfish::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_outofcore: %s needs a value\n",
                     arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--backend") {
      config.backend = next();
    } else if (arg == "--data-mb") {
      config.data_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--mem-limit-mb") {
      config.mem_limit_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--page-size") {
      config.page_size = static_cast<uint32_t>(
          std::strtoul(next(), nullptr, 10));
    } else if (arg == "--dir") {
      config.dir = next();
    } else if (arg == "--tiny") {
      config.data_mb = 16;
      config.tiny = true;
    } else if (arg == "--keep") {
      config.keep = true;
    } else if (arg == "--threads") {
      config.threads = static_cast<uint32_t>(
          std::strtoul(next(), nullptr, 10));
    } else if (arg == "--models") {
      config.models = true;
    } else if (arg == "--model-objects") {
      config.model_objects = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--budget-multiple") {
      config.budget_multiple = std::strtod(next(), nullptr);
    } else if (arg == "--gate-ranking") {
      config.gate_ranking = true;
    } else if (arg == "--compare") {
      config.compare = next();
    } else if (arg == "--max-regress") {
      config.max_regress_pct = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr, "bench_outofcore: unknown argument %s\n",
                   arg.c_str());
      return 1;
    }
  }
  if (config.backend != "mmap" && config.backend != "direct" &&
      config.backend != "both") {
    std::fprintf(stderr, "bench_outofcore: --backend must be mmap, direct "
                         "or both\n");
    return 1;
  }
  return starfish::Run(config);
}
