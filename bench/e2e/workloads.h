#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/complex_object_store.h"
#include "util/random.h"
#include "workload/shadow.h"
#include "workload/trace.h"

/// \file workloads.h
/// The four workloads of the end-to-end bench and the seeded op generator
/// that drives them.
///
/// The bench owns its generator instead of replaying ScenarioFamilies
/// traces: those fix a 20% GetByKey share (a root-relation value scan that
/// swamps every other read) and copy the whole live set for every
/// autonomous write. Here each worker thread draws its own ops on the fly
/// from a per-thread Rng, so a closed loop runs for as long as the run lasts.
/// Ops are workload::TraceOp values, so a prefix of the same stream can be
/// replayed through workload::TraceReplayer against the ShadowModel oracle.

namespace e2e {

using starfish::ObjectRef;
using starfish::workload::TraceOp;
using starfish::workload::TraceOpKind;

/// Read-op shares of the closed loop; they sum to 1.
struct ReadMix {
  double get = 0;
  double children = 0;
  double root = 0;
  double probe = 0;  ///< Get on a ref that never exists
};

/// Write-decision shares; they sum to 1. A transaction group is 2-6
/// Replace/UpdateRoot ops on one stream, committed or rolled back.
struct WriteMix {
  double put = 0;
  double remove = 0;
  double replace = 0;
  double update_root = 0;
  double txn = 0;
  double rollback = 0.2;  ///< share of groups that roll back
};

struct WorkloadSpec {
  const char* name = "";
  starfish::StorageModelKind model = starfish::StorageModelKind::kDasdbsNsm;
  starfish::VolumeKind backend = starfish::VolumeKind::kMmap;
  bool objcache = false;
  size_t objcache_bytes = 0;
  uint32_t frames = 1200;
  uint32_t write_stripes = 1;
  starfish::WalSyncPolicy wal_sync = starfish::WalSyncPolicy::kNone;
  uint32_t objects = 0;  ///< loaded objects, refs [0, objects)
  uint32_t spare = 0;    ///< refs past the load that Puts can fill
  double theta = 0;      ///< Zipf exponent of ref choice; 0 = uniform
  bool reads = false;
  bool writes = false;
  uint32_t phase_ops = 0;  ///< reads and writes alternate in phases this long
  ReadMix read_mix;
  WriteMix write_mix;
  /// Value-scan queries (the paper's 1b GetByKey and 2 Scan), run one at a
  /// time after each repetition's closed loop. Each reads a whole relation
  /// (0.1-1 s), so the few a closed loop could fit would swing its
  /// throughput from run to run; a fixed count keeps them out of it.
  uint32_t by_key_reads = 0;
  uint32_t scans = 0;
  uint32_t prefix_ops = 0;  ///< ops of the verified replay after its load
  /// A typical rate on a 4-core machine. It sizes the warm-up and the
  /// counter window in ops, so per-op counts do not depend on how fast
  /// this run happens to be.
  double nominal_ops_per_s = 0;

  uint64_t universe() const { return uint64_t{objects} + spare; }
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Worker threads of every workload.
inline constexpr uint32_t kThreads = 4;

/// STR attribute length of every generated object.
inline constexpr uint32_t kStringBytes = 24;

/// Miss probes target refs in [universe, universe + kProbeRefs): few, so
/// they repeat and the objcache's negative entries get hits.
inline constexpr uint64_t kProbeRefs = 64;

/// Trace header of a workload's generated ops (links are drawn from the ref
/// universe plus the probe range).
starfish::workload::TraceHeader MakeHeader(const WorkloadSpec& spec,
                                           uint64_t seed);

/// The load: Put of every ref in [0, objects), in transactions of at most
/// 4096 Puts on one stream (one fsync per group under wal_sync=always).
std::vector<TraceOp> LoadOps(const WorkloadSpec& spec, uint64_t seed);

/// Zipf(theta) over ranks [0, n) through a seeded permutation of the refs
/// [0, n), of which [0, loaded) are loaded; theta 0 is uniform. Read-only
/// after construction, shared by all threads.
class RefPicker {
 public:
  RefPicker(uint64_t loaded, uint64_t n, double theta, uint64_t seed);
  ObjectRef Pick(starfish::Rng* rng) const;

 private:
  std::vector<double> cumulative_;  ///< empty for uniform
  std::vector<uint64_t> perm_;
};

/// What each ref holds once the generated writes are applied: the recipe
/// the ShadowModel oracle materializes, fanout 0 when absent. Fixed size, so
/// checking a run costs no memory per op. Writer t changes only refs with
/// ref % kThreads == t; readers look only while no writer runs.
struct LiveSet {
  struct Recipe {
    uint64_t payload_seed = 0;
    uint64_t root_seed = 0;
    uint8_t fanout = 0;
    bool root_override = false;
  };

  LiveSet(const std::vector<TraceOp>& load, uint64_t universe);

  bool Live(ObjectRef ref) const {
    return ref < recipes.size() && recipes[ref].fanout != 0;
  }

  /// Applies one data write (Put, Replace, UpdateRoot or Remove).
  void Apply(const TraceOp& op);

  /// The oracle of this state.
  starfish::workload::ShadowModel Shadow(
      std::shared_ptr<const starfish::Schema> schema,
      const starfish::workload::TraceHeader& header) const;

  std::vector<Recipe> recipes;
  std::atomic<int64_t> count{0};
};

/// One worker's op stream.
class OpGen {
 public:
  OpGen(const WorkloadSpec& spec, const RefPicker* picker, LiveSet* live,
        uint32_t thread, uint64_t seed);

  /// Next read op: Get, Children, RootRecord or a miss probe (a Get of a
  /// ref that never exists).
  TraceOp NextRead();

  /// The value-scan queries that follow a closed loop: by_key_reads
  /// GetByKey, then scans Scan.
  std::vector<TraceOp> Queries();

  /// Next write group into `group` (cleared first): one autonomous op, or
  /// Begin + ops + Commit/Rollback. The live set is updated as the group
  /// leaves the store once it succeeds.
  void NextWrite(std::vector<TraceOp>* group);

 private:
  /// A live ref this thread owns, on stream `stream` (kTraceStreams = any).
  ObjectRef PickOwnedLive(uint32_t stream);
  uint32_t Fanout();

  const WorkloadSpec& spec_;
  const RefPicker* picker_;
  LiveSet* live_;
  uint32_t thread_;
  starfish::Rng rng_;
  std::vector<ObjectRef> dead_;  ///< owned refs free for a Put, LIFO
};

}  // namespace e2e
