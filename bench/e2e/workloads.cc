#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2e {

using starfish::Rng;
using starfish::StorageModelKind;
using starfish::VolumeKind;
using starfish::WalSyncPolicy;
using starfish::workload::kTraceStreams;

namespace {

/// Puts per load transaction.
constexpr uint32_t kLoadGroup = 4096;

/// Sub-tuple counts are geometric-ish in [1, kFanoutMax]: most objects
/// small, a tail of big ones (the workload generator's own shape).
constexpr uint32_t kFanoutMax = 6;

uint32_t SkewedFanout(Rng* rng) {
  uint32_t f = 1;
  while (f < kFanoutMax && rng->Bernoulli(0.6)) ++f;
  return f;
}

TraceOp MakeOp(TraceOpKind kind, ObjectRef ref, uint32_t fanout,
               uint64_t payload_seed) {
  TraceOp op;
  op.kind = kind;
  op.ref = ref;
  op.stream = static_cast<uint8_t>(ref % kTraceStreams);
  op.fanout = fanout;
  op.payload_seed = payload_seed;
  return op;
}

TraceOp Marker(TraceOpKind kind, uint32_t stream) {
  TraceOp op;
  op.kind = kind;
  op.stream = static_cast<uint8_t>(stream);
  return op;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The CPU read path: objcache hits, assembly on misses, buffer fix hits.
  // The WAL is idle and the volume nearly so.
  WorkloadSpec hot;
  hot.name = "hot_get";
  hot.model = StorageModelKind::kDasdbsNsm;
  hot.backend = VolumeKind::kMmap;
  hot.objcache = true;
  hot.objcache_bytes = size_t{16} << 20;
  hot.frames = 1200;
  hot.objects = 100000;
  hot.theta = 0.99;
  hot.reads = true;
  hot.read_mix.get = 0.58;
  hot.read_mix.children = 0.25;
  hot.read_mix.root = 0.15;
  hot.read_mix.probe = 0.02;
  hot.prefix_ops = 20000;
  hot.nominal_ops_per_s = 800000;
  all.push_back(hot);

  // Buffer misses and device reads: O_DIRECT, a pool 1/25 of the store,
  // uniform refs, plus the paper's value-scan queries (1b GetByKey, 2 Scan).
  WorkloadSpec cold;
  cold.name = "cold_read";
  cold.model = StorageModelKind::kDasdbsNsm;
  cold.backend = VolumeKind::kDirect;
  cold.objcache = false;
  cold.frames = 256;
  cold.objects = 50000;
  cold.theta = 0;
  cold.reads = true;
  cold.read_mix.get = 0.60;
  cold.read_mix.children = 0.25;
  cold.read_mix.root = 0.15;
  cold.by_key_reads = 4;
  cold.scans = 1;
  cold.prefix_ops = 5000;
  cold.nominal_ops_per_s = 35000;
  all.push_back(cold);

  // WAL append, fsync and group commit, write latches, write-back. Writer t
  // owns the refs with ref % 4 == t, which is one of the 4 stripes.
  WorkloadSpec durable;
  durable.name = "durable_write";
  durable.model = StorageModelKind::kDsm;
  durable.backend = VolumeKind::kMmap;
  durable.objcache = false;
  durable.frames = 1200;
  durable.write_stripes = kThreads;
  durable.wal_sync = WalSyncPolicy::kAlways;
  durable.objects = 20000;
  durable.spare = 2000;
  durable.theta = 0.8;
  durable.writes = true;
  durable.write_mix.put = 0.075;
  durable.write_mix.remove = 0.075;
  durable.write_mix.replace = 0.40;
  durable.write_mix.update_root = 0.30;
  durable.write_mix.txn = 0.15;
  durable.prefix_ops = 2000;
  durable.nominal_ops_per_s = 35000;
  all.push_back(durable);

  // The same layers used the opposite way: objcache under invalidation
  // churn, the WAL without fsync, NSM's every-segment write latch.
  WorkloadSpec bursty;
  bursty.name = "bursty_mixed";
  bursty.model = StorageModelKind::kDasdbsNsm;
  bursty.backend = VolumeKind::kMmap;
  bursty.objcache = true;
  bursty.objcache_bytes = size_t{4} << 20;
  bursty.frames = 1200;
  bursty.wal_sync = WalSyncPolicy::kNone;
  bursty.objects = 20000;
  bursty.spare = 1000;
  bursty.theta = 0.9;
  bursty.reads = true;
  bursty.writes = true;
  bursty.phase_ops = 512;
  bursty.read_mix.get = 0.60;
  bursty.read_mix.children = 0.25;
  bursty.read_mix.root = 0.15;
  bursty.write_mix.put = 0.05;
  bursty.write_mix.remove = 0.05;
  bursty.write_mix.replace = 0.50;
  bursty.write_mix.update_root = 0.40;
  bursty.prefix_ops = 20000;
  bursty.nominal_ops_per_s = 100000;
  all.push_back(bursty);
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  for (const WorkloadSpec& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

starfish::workload::TraceHeader MakeHeader(const WorkloadSpec& spec,
                                           uint64_t seed) {
  starfish::workload::TraceHeader header;
  header.seed = seed;
  header.ref_universe = spec.universe() + kProbeRefs;
  header.string_bytes = kStringBytes;
  return header;
}

std::vector<TraceOp> LoadOps(const WorkloadSpec& spec, uint64_t seed) {
  // Recipes are drawn in ref order, so a ref's object does not depend on
  // how the load is grouped.
  Rng rng(seed ^ 0x6c6f6164ull);
  std::vector<uint32_t> fanout(spec.objects);
  std::vector<uint64_t> payload(spec.objects);
  for (uint32_t r = 0; r < spec.objects; ++r) {
    fanout[r] = SkewedFanout(&rng);
    payload[r] = rng.Next();
  }
  std::vector<TraceOp> ops;
  ops.reserve(spec.objects + 4 * kTraceStreams);
  for (uint32_t s = 0; s < kTraceStreams; ++s) {
    uint32_t in_group = 0;
    for (uint64_t r = s; r < spec.objects; r += kTraceStreams) {
      if (in_group == 0) ops.push_back(Marker(TraceOpKind::kBegin, s));
      ops.push_back(MakeOp(TraceOpKind::kPut, r, fanout[r], payload[r]));
      if (++in_group == kLoadGroup) {
        ops.push_back(Marker(TraceOpKind::kCommit, s));
        in_group = 0;
      }
    }
    if (in_group != 0) ops.push_back(Marker(TraceOpKind::kCommit, s));
  }
  return ops;
}

// --------------------------------------------------------------- RefPicker --

RefPicker::RefPicker(uint64_t loaded, uint64_t n, double theta,
                     uint64_t seed) {
  // Loaded refs take the ranks in random order; the spare refs, which start
  // absent, take the coldest ranks, so how often a read misses does not
  // hinge on whether the seed made a spare ref hot.
  Rng rng(seed ^ 0x7065726dull);
  std::vector<uint64_t> spare(n - loaded);
  std::iota(spare.begin(), spare.end(), loaded);
  rng.Shuffle(&spare);
  perm_.resize(loaded);
  std::iota(perm_.begin(), perm_.end(), uint64_t{0});
  rng.Shuffle(&perm_);
  perm_.insert(perm_.end(), spare.begin(), spare.end());
  if (theta > 0) {
    cumulative_.resize(n);
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cumulative_[r] = sum;
    }
  }
}

ObjectRef RefPicker::Pick(Rng* rng) const {
  if (cumulative_.empty()) return perm_[rng->Uniform(perm_.size())];
  const double u = rng->NextDouble() * cumulative_.back();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const size_t rank = std::min<size_t>(it - cumulative_.begin(),
                                       cumulative_.size() - 1);
  return perm_[rank];
}

// ----------------------------------------------------------------- LiveSet --

LiveSet::LiveSet(const std::vector<TraceOp>& load, uint64_t universe)
    : recipes(universe) {
  for (const TraceOp& op : load) {
    if (op.kind == TraceOpKind::kPut) Apply(op);
  }
}

void LiveSet::Apply(const TraceOp& op) {
  Recipe& r = recipes[op.ref];
  switch (op.kind) {
    case TraceOpKind::kPut:
      count.fetch_add(1, std::memory_order_relaxed);
      [[fallthrough]];
    case TraceOpKind::kReplace:
      r = Recipe{op.payload_seed, 0, static_cast<uint8_t>(op.fanout), false};
      break;
    case TraceOpKind::kUpdateRoot:
      r.root_seed = op.payload_seed;
      r.root_override = true;
      break;
    case TraceOpKind::kRemove:
      count.fetch_sub(1, std::memory_order_relaxed);
      r = Recipe{};
      break;
    default:
      break;
  }
}

starfish::workload::ShadowModel LiveSet::Shadow(
    std::shared_ptr<const starfish::Schema> schema,
    const starfish::workload::TraceHeader& header) const {
  starfish::workload::ShadowModel shadow(std::move(schema), header);
  for (ObjectRef ref = 0; ref < recipes.size(); ++ref) {
    const Recipe& r = recipes[ref];
    if (r.fanout == 0) continue;
    shadow.ApplyWrite(MakeOp(TraceOpKind::kPut, ref, r.fanout, r.payload_seed));
    if (r.root_override) {
      shadow.ApplyWrite(MakeOp(TraceOpKind::kUpdateRoot, ref, 0, r.root_seed));
    }
  }
  return shadow;
}

// ------------------------------------------------------------------- OpGen --

OpGen::OpGen(const WorkloadSpec& spec, const RefPicker* picker, LiveSet* live,
             uint32_t thread, uint64_t seed)
    : spec_(spec), picker_(picker), live_(live), thread_(thread), rng_(seed) {
  for (ObjectRef r = 0; r < spec.universe(); ++r) {
    if (r % kThreads == thread && !live->Live(r)) dead_.push_back(r);
  }
}

uint32_t OpGen::Fanout() { return SkewedFanout(&rng_); }

ObjectRef OpGen::PickOwnedLive(uint32_t stream) {
  // Moving the drawn ref to its owned neighbour keeps the popularity of the
  // draw: the 4 (or 8) refs of one group share one rank.
  const uint32_t group = stream == kTraceStreams ? kThreads : kTraceStreams;
  const uint32_t slot = stream == kTraceStreams ? thread_ : stream;
  for (;;) {
    const ObjectRef drawn = picker_->Pick(&rng_);
    const ObjectRef ref = drawn - drawn % group + slot;
    if (live_->Live(ref)) return ref;
  }
}

std::vector<TraceOp> OpGen::Queries() {
  std::vector<TraceOp> ops;
  for (uint32_t i = 0; i < spec_.by_key_reads; ++i) {
    ops.push_back(MakeOp(TraceOpKind::kGetByKey, PickOwnedLive(kTraceStreams),
                         0, 0));
  }
  for (uint32_t i = 0; i < spec_.scans; ++i) {
    ops.push_back(Marker(TraceOpKind::kScan, thread_));
  }
  return ops;
}

TraceOp OpGen::NextRead() {
  const ReadMix& m = spec_.read_mix;
  const double u = rng_.NextDouble();
  if (u < m.probe) {
    return MakeOp(TraceOpKind::kGet,
                  spec_.universe() + rng_.Uniform(kProbeRefs), 0, 0);
  }
  const ObjectRef ref = picker_->Pick(&rng_);
  TraceOpKind kind = TraceOpKind::kRootRecord;
  if (u < m.probe + m.get) {
    kind = TraceOpKind::kGet;
  } else if (u < m.probe + m.get + m.children) {
    kind = TraceOpKind::kChildren;
  }
  return MakeOp(kind, ref, 0, 0);
}

void OpGen::NextWrite(std::vector<TraceOp>* group) {
  group->clear();
  const WriteMix& m = spec_.write_mix;
  double u = rng_.NextDouble();

  if (u < m.txn) {
    // Replace/UpdateRoot on refs of one stream, so the group stays on one
    // replay thread; liveness never changes inside a group.
    const uint32_t stream = thread_ + kThreads * static_cast<uint32_t>(
                                                     rng_.Uniform(
                                                         kTraceStreams /
                                                         kThreads));
    const uint64_t n = 2 + rng_.Uniform(5);
    const bool rollback = rng_.Bernoulli(m.rollback);
    group->push_back(Marker(TraceOpKind::kBegin, stream));
    for (uint64_t i = 0; i < n; ++i) {
      const ObjectRef ref = PickOwnedLive(stream);
      if (rng_.Bernoulli(0.5)) {
        group->push_back(
            MakeOp(TraceOpKind::kReplace, ref, Fanout(), rng_.Next()));
      } else {
        group->push_back(
            MakeOp(TraceOpKind::kUpdateRoot, ref, 0, rng_.Next()));
      }
    }
    group->push_back(Marker(
        rollback ? TraceOpKind::kRollback : TraceOpKind::kCommit, stream));
    if (!rollback) {
      for (size_t i = 1; i + 1 < group->size(); ++i) live_->Apply((*group)[i]);
    }
    return;
  }
  u -= m.txn;

  TraceOp op;
  if (u < m.put && !dead_.empty()) {
    // Last removed, first re-Put: a hot ref that was removed comes back
    // soon, so removals do not wear the hot set away.
    const ObjectRef ref = dead_.back();
    dead_.pop_back();
    op = MakeOp(TraceOpKind::kPut, ref, Fanout(), rng_.Next());
  } else {
    u -= m.put;
    const ObjectRef ref = PickOwnedLive(kTraceStreams);
    if (u >= 0 && u < m.remove) {
      dead_.push_back(ref);
      op = MakeOp(TraceOpKind::kRemove, ref, 0, 0);
    } else if (u < m.remove + m.replace) {
      // Also the fallback of a Put with no free ref left (u < 0).
      op = MakeOp(TraceOpKind::kReplace, ref, Fanout(), rng_.Next());
    } else {
      op = MakeOp(TraceOpKind::kUpdateRoot, ref, 0, rng_.Next());
    }
  }
  live_->Apply(op);
  group->push_back(op);
}

}  // namespace e2e
