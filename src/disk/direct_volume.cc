#include "disk/direct_volume.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

#if defined(__linux__)
#include <sys/syscall.h>
#if __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#define STARFISH_HAVE_IO_URING 1
#endif
#endif

#if defined(O_DIRECT)
#define STARFISH_HAVE_ODIRECT 1
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/aligned_buffer.h"
#include "util/file_io.h"

namespace starfish {

namespace {

/// Bounce buffers are allocated at this alignment — enough for any device
/// DMA requirement in practice (the probe relaxes the *eligibility* check
/// to 512 where the device allows it, but over-aligning an allocation
/// costs nothing).
constexpr size_t kBounceAlign = 4096;

/// Each DirectVolume gets a process-unique serial so a thread-local ring
/// slot left over from a destroyed volume can never match a live one.
std::atomic<uint64_t> g_volume_serial{1};

#if STARFISH_HAVE_ODIRECT

/// Trial-writes a scratch file to answer: can this filesystem do O_DIRECT
/// transfers of `page_size` bytes at page-size offsets, and does it accept
/// 512-byte buffer alignment or insist on 4096? Returns the buffer
/// alignment to use, or NotSupported.
Result<uint32_t> ProbeDioAlignment(const std::string& dir,
                                   uint32_t page_size) {
  const std::string path = dir + "/.dio_probe";
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_DIRECT, 0644);
  if (fd < 0) {
    return Status::NotSupported("filesystem at " + dir +
                                " rejects O_DIRECT: " + std::strerror(errno));
  }
  AlignedBuffer buf;
  Status failed;
  uint32_t align = 0;
  if (!buf.Reserve(static_cast<size_t>(page_size) + 512, kBounceAlign)) {
    failed = Status::ResourceExhausted("cannot allocate O_DIRECT probe");
  } else {
    std::memset(buf.data(), 0, static_cast<size_t>(page_size) + 512);
    // One page at offset 0 and one at offset page_size: covers the length,
    // offset and (4096-aligned) buffer requirements in one go.
    if (::pwrite(fd, buf.data(), page_size, 0) ==
            static_cast<ssize_t>(page_size) &&
        ::pwrite(fd, buf.data(), page_size,
                 static_cast<off_t>(page_size)) ==
            static_cast<ssize_t>(page_size)) {
      align = kBounceAlign;
      // Relax to sector alignment where the device accepts it — fewer
      // caller buffers have to bounce.
      if (::pwrite(fd, buf.data() + 512, page_size, 0) ==
          static_cast<ssize_t>(page_size)) {
        align = 512;
      }
    } else {
      failed = Status::NotSupported(
          "O_DIRECT at " + dir + " cannot transfer page_size=" +
          std::to_string(page_size) + ": " + std::strerror(errno));
    }
  }
  ::close(fd);
  ::unlink(path.c_str());
  if (align == 0) return failed;
  return align;
}

#endif  // STARFISH_HAVE_ODIRECT

#if STARFISH_HAVE_IO_URING

int SysIoUringSetup(unsigned entries, struct io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int SysIoUringRegister(int fd, unsigned opcode, const void* arg,
                       unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

/// True when the kernel supports the (non-vectored) IORING_OP_READ/WRITE
/// this wrapper submits. Ring *creation* succeeds from 5.1, but these
/// opcodes only exist since 5.6 — the probe (itself 5.6+) distinguishes
/// "ring works" from "our opcodes work", so a 5.1-5.5 kernel falls back to
/// pread/pwrite instead of completing every I/O with EINVAL. (The _FIXED
/// variants predate the plain ones — 5.1 — so no separate probe is needed
/// for the registered-buffer path.)
bool RingSupportsReadWrite(int ring_fd) {
  constexpr unsigned kProbeOps = 64;  // covers IORING_OP_WRITE everywhere
  std::vector<char> buf(
      sizeof(struct io_uring_probe) +
          kProbeOps * sizeof(struct io_uring_probe_op),
      0);
  auto* probe = reinterpret_cast<struct io_uring_probe*>(buf.data());
  if (SysIoUringRegister(ring_fd, IORING_REGISTER_PROBE, probe,
                         kProbeOps) != 0) {
    return false;
  }
  return probe->ops_len > IORING_OP_WRITE &&
         (probe->ops[IORING_OP_READ].flags & IO_URING_OP_SUPPORTED) != 0 &&
         (probe->ops[IORING_OP_WRITE].flags & IO_URING_OP_SUPPORTED) != 0;
}

#endif  // STARFISH_HAVE_IO_URING

}  // namespace

/// All rings this volume ever handed out, plus the registered-I/O-memory
/// regions they snapshot. Teardown is centralized here: DirectVolume's
/// destructor calls Close(), which shuts every ring down (closing its fd
/// and unmapping its queues) regardless of whether the owning threads are
/// still alive — a surviving thread's thread-local slot keeps the IoRing
/// *object* alive via shared_ptr, sees `down`, and falls back, so nothing
/// ever touches freed ring memory. Conversely, when a thread exits while
/// the volume lives, its slot releases the last outside reference and the
/// registry reaps the ring (use_count()==1 under mu) on the next ring
/// creation, so per-thread ring fds never accumulate past the number of
/// live submitting threads.
struct DirectVolume::RingRegistry {
  struct Region {
    uintptr_t base;
    size_t len;
  };

  std::mutex mu;
  bool closed = false;                          ///< guarded by mu
  std::vector<std::shared_ptr<IoRing>> rings;   ///< guarded by mu
  std::vector<Region> regions;                  ///< guarded by mu
  /// Bumped on every regions change; rings compare their snapshot version
  /// against it without taking mu (monotonic, release/acquire).
  std::atomic<uint64_t> regions_version{1};

  void Close();
};

/// Minimal raw-syscall io_uring wrapper (no liburing dependency): one
/// submission/completion ring pair with ticketed completions. A ring is
/// owned by exactly one submitting thread, so no lock guards it.
/// SubmitTicket pushes a batch of read or write SQEs and returns a ticket;
/// WaitTicket blocks until that ticket's completions have all landed,
/// finishing any short transfer synchronously — the synchronous Execute
/// path is simply submit-then-wait, and the async prefetch path holds
/// several tickets in flight. Null from Create means the kernel refused
/// (ENOSYS, seccomp EPERM, sysctl-disabled) and the volume runs on
/// pread/pwrite instead.
struct DirectVolume::IoRing {
#if STARFISH_HAVE_IO_URING
  int ring_fd = -1;
  unsigned sq_entries = 0;
  unsigned cq_entries = 0;
  void* sq_map = nullptr;
  size_t sq_map_len = 0;
  void* cq_map = nullptr;   ///< null when IORING_FEAT_SINGLE_MMAP
  size_t cq_map_len = 0;
  void* sqe_map = nullptr;
  size_t sqe_map_len = 0;
  struct io_uring_sqe* sqes = nullptr;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  struct io_uring_cqe* cqes = nullptr;

  /// True after an error left submissions in an indeterminate state (SQEs
  /// queued but never handed to the kernel, or completions that could not
  /// be drained). A broken ring is never touched again — callers fall back
  /// to the pread/pwrite path. Atomic so AcquireRing can check it cheaply
  /// without any lock.
  std::atomic<bool> broken{false};

  /// Set by Shutdown(): the fd is closed and the queue mappings are gone.
  /// Stale thread-local slots check this and fall back (the IoRing object
  /// itself stays alive through their shared_ptr).
  std::atomic<bool> down{false};

  /// Release-published by the owning thread's Slot destructor at thread
  /// exit. The reaper's acquire load of it is the happens-before edge that
  /// orders every plain-field use the owner made (SubmitTicket reads
  /// ring_fd etc. without locks) before the registry's Shutdown() — a bare
  /// use_count()==1 observation carries no such edge.
  std::atomic<bool> owner_detached{false};

  // Registration state, owner-thread-only. want_* drop to false for good
  // when the kernel refuses that registration on this ring.
  bool want_buffers = true;
  bool want_files = true;
  bool bufs_registered = false;
  uint64_t bufs_version = 0;  ///< registry regions_version last synced
  std::vector<RingRegistry::Region> buf_regions;  ///< index == buf_index
  bool files_registered = false;
  uint32_t files_count = 0;  ///< registered fd table size (== extent count)

  /// One submitted batch awaiting completion.
  struct Pending {
    std::vector<IoOp> owned;    ///< async tickets own their ops
    const IoOp* ops = nullptr;  ///< sync tickets alias the caller's vector
    size_t count = 0;
    unsigned remaining = 0;
    bool write = false;
    Status error;
  };
  std::unordered_map<uint32_t, Pending> pending;
  uint32_t next_ticket = 1;  ///< 0 is the "already completed" sentinel
  unsigned in_flight = 0;    ///< SQEs accepted by the kernel, CQE unreaped

  ~IoRing() { Shutdown(); }

  /// Closes the ring fd and unmaps the queues. Idempotent. Only called
  /// with no in-flight I/O and no concurrent submitter (registry Close
  /// under its mu, or the destructor).
  void Shutdown() {
    if (down.exchange(true)) return;
    if (sqe_map != nullptr) {
      ::munmap(sqe_map, sqe_map_len);
      sqe_map = nullptr;
    }
    if (cq_map != nullptr) {
      ::munmap(cq_map, cq_map_len);
      cq_map = nullptr;
    }
    if (sq_map != nullptr) {
      ::munmap(sq_map, sq_map_len);
      sq_map = nullptr;
    }
    if (ring_fd >= 0) {
      ::close(ring_fd);
      ring_fd = -1;
    }
  }

  static std::shared_ptr<IoRing> Create(uint32_t depth) {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = SysIoUringSetup(std::max(1u, depth), &params);
    if (fd < 0) return nullptr;
    auto ring = std::make_shared<IoRing>();
    ring->ring_fd = fd;
    ring->sq_entries = params.sq_entries;
    ring->cq_entries = params.cq_entries;
    size_t sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    size_t cq_len = params.cq_off.cqes +
                    params.cq_entries * sizeof(struct io_uring_cqe);
    const bool single = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single) sq_len = cq_len = std::max(sq_len, cq_len);
    ring->sq_map = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (ring->sq_map == MAP_FAILED) {
      ring->sq_map = nullptr;
      return nullptr;
    }
    ring->sq_map_len = sq_len;
    char* cq_base = static_cast<char*>(ring->sq_map);
    if (!single) {
      ring->cq_map = ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (ring->cq_map == MAP_FAILED) {
        ring->cq_map = nullptr;
        return nullptr;
      }
      ring->cq_map_len = cq_len;
      cq_base = static_cast<char*>(ring->cq_map);
    }
    ring->sqe_map_len = params.sq_entries * sizeof(struct io_uring_sqe);
    ring->sqe_map = ::mmap(nullptr, ring->sqe_map_len, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (ring->sqe_map == MAP_FAILED) {
      ring->sqe_map = nullptr;
      return nullptr;
    }
    char* sq_base = static_cast<char*>(ring->sq_map);
    ring->sqes = reinterpret_cast<struct io_uring_sqe*>(ring->sqe_map);
    ring->sq_head = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
    ring->sq_tail = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
    ring->sq_mask =
        reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
    ring->sq_array = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
    ring->cq_head = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
    ring->cq_tail = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
    ring->cq_mask =
        reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
    ring->cqes = reinterpret_cast<struct io_uring_cqe*>(cq_base +
                                                        params.cq_off.cqes);
    if (!RingSupportsReadWrite(fd)) return nullptr;
    return ring;
  }

  /// Re-syncs fixed-buffer / registered-file state with the volume when it
  /// drifted (extents grew, RegisterIoMemory was called). Only safe — and
  /// only attempted — while nothing is in flight on this ring; a kernel
  /// refusal permanently downgrades that feature on this ring (plain SQEs
  /// keep working).
  void MaybeSyncRegistrations(DirectVolume* vol) {
    if (!pending.empty() || in_flight != 0) return;
    if (want_files) {
      const uint32_t ext =
          vol->published_extents_.load(std::memory_order_acquire);
      if (ext != files_count) {
        if (files_registered) {
          (void)SysIoUringRegister(ring_fd, IORING_UNREGISTER_FILES, nullptr,
                                   0);
          files_registered = false;
          files_count = 0;
        }
        if (ext > 0) {
          std::vector<int> fds(ext);
          for (uint32_t i = 0; i < ext; ++i) {
            fds[i] = vol->fds_[i].load(std::memory_order_relaxed);
          }
          if (SysIoUringRegister(ring_fd, IORING_REGISTER_FILES, fds.data(),
                                 ext) == 0) {
            files_registered = true;
            files_count = ext;
          } else {
            want_files = false;
          }
        }
      }
    }
    if (want_buffers) {
      RingRegistry* reg = vol->registry_.get();
      if (reg->regions_version.load(std::memory_order_acquire) !=
          bufs_version) {
        if (bufs_registered) {
          (void)SysIoUringRegister(ring_fd, IORING_UNREGISTER_BUFFERS, nullptr,
                                   0);
          bufs_registered = false;
        }
        buf_regions.clear();
        {
          std::lock_guard<std::mutex> lock(reg->mu);
          buf_regions = reg->regions;
          bufs_version = reg->regions_version.load(std::memory_order_relaxed);
        }
        if (!buf_regions.empty()) {
          std::vector<struct iovec> iov(buf_regions.size());
          for (size_t i = 0; i < buf_regions.size(); ++i) {
            iov[i].iov_base = reinterpret_cast<void*>(buf_regions[i].base);
            iov[i].iov_len = buf_regions[i].len;
          }
          if (SysIoUringRegister(ring_fd, IORING_REGISTER_BUFFERS, iov.data(),
                                 static_cast<unsigned>(iov.size())) == 0) {
            bufs_registered = true;
          } else {
            // Typical cause: RLIMIT_MEMLOCK too small to pin the arena.
            // This ring keeps using plain (unpinned) SQEs.
            want_buffers = false;
            buf_regions.clear();
          }
        }
      }
    }
  }

  void FillSqe(struct io_uring_sqe* sqe, const IoOp& op, bool write,
               uint64_t user_data) const {
    std::memset(sqe, 0, sizeof(*sqe));
    int buf_index = -1;
    if (bufs_registered) {
      const uintptr_t addr = reinterpret_cast<uintptr_t>(op.buf);
      for (size_t r = 0; r < buf_regions.size(); ++r) {
        if (addr >= buf_regions[r].base &&
            addr + op.len <= buf_regions[r].base + buf_regions[r].len) {
          buf_index = static_cast<int>(r);
          break;
        }
      }
    }
    if (buf_index >= 0) {
      sqe->opcode = write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
      sqe->buf_index = static_cast<uint16_t>(buf_index);
    } else {
      sqe->opcode = write ? IORING_OP_WRITE : IORING_OP_READ;
    }
    if (files_registered && op.extent < files_count) {
      sqe->fd = static_cast<int>(op.extent);
      sqe->flags |= IOSQE_FIXED_FILE;
    } else {
      sqe->fd = op.fd;
    }
    sqe->addr = reinterpret_cast<uint64_t>(op.buf);
    sqe->len = op.len;
    sqe->off = op.off;
    sqe->user_data = user_data;
  }

  /// Attributes one CQE back to its pending ticket, finishing short
  /// transfers synchronously.
  void HandleCqe(const struct io_uring_cqe& cqe) {
    if (in_flight > 0) --in_flight;
    const uint32_t ticket = static_cast<uint32_t>(cqe.user_data >> 32);
    const size_t idx = static_cast<uint32_t>(cqe.user_data);
    auto it = pending.find(ticket);
    if (it == pending.end() || idx >= it->second.count) return;
    Pending& p = it->second;
    const IoOp& op = p.ops[idx];
    if (cqe.res < 0) {
      if (p.error.ok()) {
        p.error = Status::IOError(
            std::string(p.write ? "io_uring write: " : "io_uring read: ") +
            std::strerror(-cqe.res));
      }
    } else if (static_cast<uint32_t>(cqe.res) < op.len) {
      const Status st = ExecuteSync(op, p.write, static_cast<uint32_t>(cqe.res));
      if (p.error.ok() && !st.ok()) p.error = st;
    }
    if (p.remaining > 0) --p.remaining;
  }

  /// Consumes available CQEs; with `blocking` set and nothing available,
  /// waits for at least one (in_flight permitting). Marks the ring broken
  /// when the kernel will not hand completions back.
  Status Reap(bool blocking) {
    int wait_failures = 0;
    for (;;) {
      unsigned head = *cq_head;
      const unsigned ctail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
      if (head == ctail) {
        if (!blocking || in_flight == 0) return Status::OK();
        const int ret = SysIoUringEnter(ring_fd, 0, 1, IORING_ENTER_GETEVENTS);
        if (ret < 0 && errno != EINTR && ++wait_failures > 64) {
          // The kernel will not complete what it accepted; the ring (and
          // the in-flight buffers) are lost to us.
          broken.store(true, std::memory_order_relaxed);
          return Status::IOError(
              std::string("io_uring completion drain failed: ") +
              std::strerror(errno));
        }
        continue;
      }
      while (head != ctail) {
        HandleCqe(cqes[head & *cq_mask]);
        ++head;
      }
      __atomic_store_n(cq_head, head, __ATOMIC_RELEASE);
      return Status::OK();
    }
  }

  /// Blocks until everything in flight completed (best effort; gives up on
  /// a broken ring). Used before failing a ticket so the kernel cannot
  /// keep scribbling into buffers the caller is about to reuse.
  void DrainAllBestEffort() {
    while (in_flight > 0) {
      const unsigned before = in_flight;
      if (!Reap(/*blocking=*/true).ok()) return;
      if (in_flight == before) return;
    }
  }

  /// Pushes `count` ops as SQEs (in SQ-sized chunks, with CQ headroom
  /// respected) and returns a ticket for WaitTicket. Async callers move
  /// their ops in via `owned`; the synchronous path passes an alias
  /// pointer and waits before touching its vector again.
  Result<uint64_t> SubmitTicket(const IoOp* ops, size_t count, bool write,
                                std::vector<IoOp> owned) {
    if (down.load(std::memory_order_relaxed) ||
        broken.load(std::memory_order_relaxed)) {
      return Status::Internal("io_uring in indeterminate state");
    }
    while (pending.count(next_ticket) != 0 || next_ticket == 0) ++next_ticket;
    const uint32_t ticket = next_ticket++;
    Pending& p = pending[ticket];
    p.owned = std::move(owned);
    p.ops = p.owned.empty() ? ops : p.owned.data();
    p.count = count;
    p.remaining = static_cast<unsigned>(count);
    p.write = write;

    size_t done = 0;
    while (done < count) {
      // Never let accepted-but-unreaped ops exceed the CQ: an overflowed
      // CQ drops completions on old kernels.
      const unsigned cq_room = cq_entries > in_flight
                                   ? cq_entries - in_flight
                                   : 0;
      const unsigned batch = static_cast<unsigned>(
          std::min<size_t>({count - done, sq_entries, cq_room}));
      if (batch == 0) {
        const Status st = Reap(/*blocking=*/true);
        if (!st.ok()) {
          DrainAllBestEffort();
          pending.erase(ticket);
          return st;
        }
        continue;
      }
      const unsigned tail = *sq_tail;
      for (unsigned i = 0; i < batch; ++i) {
        const unsigned idx = (tail + i) & *sq_mask;
        FillSqe(&sqes[idx], p.ops[done + i], write,
                (static_cast<uint64_t>(ticket) << 32) |
                    static_cast<uint32_t>(done + i));
        sq_array[idx] = idx;
      }
      __atomic_store_n(sq_tail, tail + batch, __ATOMIC_RELEASE);
      unsigned submitted = 0;
      Status submit_error;
      while (submitted < batch) {
        const int ret = SysIoUringEnter(ring_fd, batch - submitted, 0, 0);
        if (ret < 0) {
          if (errno == EINTR) continue;
          if (errno == EBUSY || errno == EAGAIN) {
            // Completion-queue back-pressure: reap, then retry.
            const Status st = Reap(/*blocking=*/true);
            if (!st.ok()) {
              submit_error = st;
              break;
            }
            continue;
          }
          submit_error = Status::IOError(std::string("io_uring_enter: ") +
                                         std::strerror(errno));
          break;
        }
        submitted += static_cast<unsigned>(ret);
        in_flight += static_cast<unsigned>(ret);
      }
      if (!submit_error.ok()) {
        // SQEs past `submitted` are still queued in the SQ ring and would
        // be handed to the kernel (with dangling buffers) by the next
        // enter — the ring cannot be safely reused. Drain what the kernel
        // accepted BEFORE returning: in-flight ops write into caller
        // buffers that would otherwise be reused while the kernel still
        // scribbles on them.
        broken.store(true, std::memory_order_relaxed);
        DrainAllBestEffort();
        pending.erase(ticket);
        return submit_error;
      }
      done += batch;
    }
    return static_cast<uint64_t>(ticket);
  }

  /// Blocks until `ticket`'s completions all landed; returns its first
  /// per-op error. Reaps (and credits) other tickets' completions along
  /// the way.
  Status WaitTicket(uint64_t ticket64) {
    const uint32_t ticket = static_cast<uint32_t>(ticket64);
    auto it = pending.find(ticket);
    if (it == pending.end()) return Status::OK();
    while (it->second.remaining > 0) {
      if (broken.load(std::memory_order_relaxed) ||
          down.load(std::memory_order_relaxed)) {
        pending.erase(it);
        return Status::IOError("io_uring broke with I/O in flight");
      }
      const Status st = Reap(/*blocking=*/true);
      if (!st.ok()) {
        pending.erase(it);
        return st;
      }
    }
    Status result = std::move(it->second.error);
    pending.erase(it);
    return result;
  }
#else   // !STARFISH_HAVE_IO_URING
  std::atomic<bool> owner_detached{false};
  bool bufs_registered = false, files_registered = false;
  static std::shared_ptr<IoRing> Create(uint32_t) {
    return nullptr;
  }
  void Shutdown() {}
  void MaybeSyncRegistrations(DirectVolume*) {}
  Result<uint64_t> SubmitTicket(const IoOp*, size_t, bool,
                                std::vector<IoOp>) {
    return Status::Internal("io_uring support not compiled in");
  }
  Status WaitTicket(uint64_t) {
    return Status::Internal("io_uring support not compiled in");
  }
#endif  // STARFISH_HAVE_IO_URING
};

void DirectVolume::RingRegistry::Close() {
  std::lock_guard<std::mutex> lock(mu);
  closed = true;
  for (auto& ring : rings) {
    // Order an exited owner's lock-free ring uses before Shutdown. Live
    // owners must already be quiesced by the caller (closing a volume
    // while threads submit to it is outside the contract).
    (void)ring->owner_detached.load(std::memory_order_acquire);
    ring->Shutdown();
  }
  rings.clear();
}

DirectVolume::DirectVolume(std::string dir, DiskOptions options,
                           DirectVolumeOptions direct_options,
                           uint32_t dio_mem_align)
    : PagedVolume(options),
      dir_(std::move(dir)),
      dio_mem_align_(std::max<uint32_t>(dio_mem_align, 512)),
      direct_options_(direct_options),
      serial_(g_volume_serial.fetch_add(1, std::memory_order_relaxed)),
      registry_(std::make_shared<RingRegistry>()) {
  journal_.Attach(dir_ + "/volume.meta");
  fds_ = std::make_unique<std::atomic<int>[]>(kMaxExtents);
  for (size_t i = 0; i < kMaxExtents; ++i) {
    fds_[i].store(-1, std::memory_order_relaxed);
  }
}

DirectVolume::~DirectVolume() {
  // Centralized ring teardown FIRST (no I/O may be in flight at
  // destruction per the Volume contract): every ring the registry handed
  // out gets its fd closed and queues unmapped, even when the threads that
  // own the thread-local slots are still alive. Their slots hold the
  // IoRing objects (shared_ptr) but observe `down` and never touch the
  // freed mappings.
  if (registry_ != nullptr) registry_->Close();
#if STARFISH_HAVE_ODIRECT
  // Best-effort close-time checkpoint, mirroring the mmap backend: page
  // bytes already sit on the device (O_DIRECT), but block allocations and
  // the allocator journal still need their durable record — in the same
  // order Sync() enforces: extent data, then the directory entries of any
  // extent files created since the last sync, then the journal (which may
  // reference their pages only once they durably exist).
  for (size_t i = 0; i < open_extents_; ++i) {
    const int fd = fds_[i].load(std::memory_order_relaxed);
    if (fd >= 0) {
      (void)::fdatasync(fd);
    }
  }
  if (dir_dirty_.load(std::memory_order_relaxed)) {
    if (SyncDir(dir_).ok()) {
      dir_dirty_.store(false, std::memory_order_relaxed);
      (void)journal_.Checkpoint(CurrentMetaState());
    }
    // Dir fsync failed: skip the journal append rather than record pages
    // whose extent files may not survive a power loss.
  } else {
    (void)journal_.Checkpoint(CurrentMetaState());
  }
  for (size_t i = 0; i < open_extents_; ++i) {
    const int fd = fds_[i].load(std::memory_order_relaxed);
    if (fd >= 0) ::close(fd);
  }
#endif
}

bool DirectVolume::SupportedAt(const std::string& dir, uint32_t page_size) {
#if !STARFISH_HAVE_ODIRECT
  (void)dir;
  (void)page_size;
  return false;
#else
  if (dir.empty() || page_size == 0 || page_size % 512 != 0) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  return ProbeDioAlignment(dir, page_size).ok();
#endif
}

Result<std::unique_ptr<DirectVolume>> DirectVolume::Open(
    const std::string& dir, DiskOptions options,
    DirectVolumeOptions direct_options) {
#if !STARFISH_HAVE_ODIRECT
  (void)dir;
  (void)options;
  (void)direct_options;
  return Status::NotSupported("DirectVolume requires a platform with O_DIRECT");
#else
  if (dir.empty()) {
    return Status::InvalidArgument("DirectVolume requires a backing directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create volume directory " + dir + ": " +
                           ec.message());
  }

  VolumeMetaReplay replay;
  STARFISH_RETURN_NOT_OK(ReplayVolumeMeta(dir + "/volume.meta", &replay));
  // The recorded geometry wins (a volume written by EITHER persistent
  // backend — the on-disk format is shared — keeps its page size).
  if (replay.found) options = replay.state.options;
  if (options.page_size == 0) options.page_size = kDefaultPageSize;
  if (options.page_size % 512 != 0) {
    return Status::InvalidArgument(
        "DirectVolume page size must be a multiple of the 512-byte device "
        "sector, got " +
        std::to_string(options.page_size));
  }
  STARFISH_ASSIGN_OR_RETURN(const uint32_t mem_align,
                            ProbeDioAlignment(dir, options.page_size));

  auto volume = std::unique_ptr<DirectVolume>(
      new DirectVolume(dir, options, direct_options, mem_align));
  if (direct_options.use_io_uring) {
    // Rings are created lazily per submitting thread; probe once here so
    // io_uring_active() reflects reality from the start.
    auto probe = IoRing::Create(direct_options.ring_depth);
    volume->ring_available_.store(probe != nullptr, std::memory_order_relaxed);
  }

  if (!replay.found) {
    // No durable allocator state: stray extent files are the leavings of a
    // run that crashed before its first checkpoint — their stale bytes must
    // not masquerade as zero-filled fresh pages.
    STARFISH_RETURN_NOT_OK(RemoveOrphanExtentFiles(dir, 0));
    return volume;
  }

  const uint64_t ppe = volume->pages_per_extent();
  const uint64_t pages = replay.state.page_count;
  const size_t extent_count = static_cast<size_t>((pages + ppe - 1) / ppe);
  STARFISH_RETURN_NOT_OK(RemoveOrphanExtentFiles(dir, extent_count));
  {
    std::lock_guard<std::mutex> lock(volume->alloc_mu_);
    for (size_t i = 0; i < extent_count; ++i) {
      STARFISH_RETURN_NOT_OK(volume->OpenExtentFd(i, /*create=*/false));
    }
  }
  if (extent_count > 0 && pages % ppe != 0) {
    // Pages past the durable count may hold bytes of a crashed run; fresh
    // pages must read zero. Truncate down to the used prefix and back up:
    // the reinstated tail is a hole, and holes read as zeros.
    const int fd = volume->fds_[extent_count - 1].load(
        std::memory_order_relaxed);
    const off_t used = static_cast<off_t>(
        static_cast<uint64_t>(pages % ppe) * volume->page_size());
    if (::ftruncate(fd, used) != 0 ||
        ::ftruncate(fd, static_cast<off_t>(volume->extent_size_bytes())) !=
            0) {
      return Status::IOError("zero tail of extent " +
                             std::to_string(extent_count - 1) + ": " +
                             std::strerror(errno));
    }
  }
  volume->RestoreAllocatorState(pages, replay.state.freed);
  STARFISH_RETURN_NOT_OK(volume->journal_.MarkReplayed(replay));
  return volume;
#endif
}

std::string DirectVolume::ExtentPath(size_t index) const {
  return dir_ + "/" + ExtentFileName(index);
}

Status DirectVolume::OpenExtentFd(size_t index, bool create) {
#if !STARFISH_HAVE_ODIRECT
  (void)index;
  (void)create;
  return Status::NotSupported("DirectVolume requires a platform with O_DIRECT");
#else
  if (index >= kMaxExtents) {
    return Status::ResourceExhausted("volume extent directory full (" +
                                     std::to_string(index) + " extents)");
  }
  const std::string path = ExtentPath(index);
  const int flags = O_RDWR | O_CLOEXEC | O_DIRECT | (create ? O_CREAT : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  // ftruncate creates the zero-filled image of a fresh extent and repairs a
  // short file (holes read as zeros, same as fresh pages).
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      (static_cast<size_t>(st.st_size) < extent_size_bytes() &&
       ::ftruncate(fd, static_cast<off_t>(extent_size_bytes())) != 0)) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("size " + path + ": " + err);
  }
  // Release pairs with the acquire bounds check readers do before FdOf,
  // and with the acquire in ring file-table registration.
  fds_[index].store(fd, std::memory_order_release);
  open_extents_ = index + 1;
  published_extents_.store(static_cast<uint32_t>(index + 1),
                           std::memory_order_release);
  if (create) dir_dirty_.store(true, std::memory_order_relaxed);
  return Status::OK();
#endif
}

Status DirectVolume::EnsureExtentsLocked(size_t extent_count) {
  for (size_t i = open_extents_; i < extent_count; ++i) {
    STARFISH_RETURN_NOT_OK(OpenExtentFd(i, /*create=*/true));
  }
  return Status::OK();
}

int DirectVolume::FdOf(PageId id, uint64_t* off) const {
  const size_t extent = id / pages_per_extent_;
  *off = static_cast<uint64_t>(id % pages_per_extent_) * options_.page_size;
  // Relaxed is enough: the caller ordered itself after publication via the
  // acquire load in CheckRange.
  return fds_[extent].load(std::memory_order_relaxed);
}

void DirectVolume::BuildRunOps(PageId first, uint32_t count, char* base,
                               std::vector<IoOp>* ops) const {
  const uint32_t page_size = options_.page_size;
  uint32_t done = 0;
  while (done < count) {
    const PageId id = first + done;
    const uint32_t left_in_extent = pages_per_extent_ - id % pages_per_extent_;
    const uint32_t n = std::min(count - done, left_in_extent);
    uint64_t off = 0;
    const int fd = FdOf(id, &off);
    ops->push_back(IoOp{fd, static_cast<uint32_t>(id / pages_per_extent_), off,
                        base + static_cast<size_t>(done) * page_size,
                        n * page_size});
    done += n;
  }
}

Status DirectVolume::ExecuteSync(const IoOp& op, bool write, uint32_t done) {
#if !STARFISH_HAVE_ODIRECT
  (void)op;
  (void)write;
  (void)done;
  return Status::NotSupported("DirectVolume requires a platform with O_DIRECT");
#else
  while (done < op.len) {
    const ssize_t n =
        write ? ::pwrite(op.fd, op.buf + done, op.len - done,
                         static_cast<off_t>(op.off + done))
              : ::pread(op.fd, op.buf + done, op.len - done,
                        static_cast<off_t>(op.off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(write ? "pwrite: " : "pread: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("unexpected EOF in extent file (offset " +
                             std::to_string(op.off + done) + ")");
    }
    done += static_cast<uint32_t>(n);
  }
  return Status::OK();
#endif
}

DirectVolume::IoRing* DirectVolume::AcquireRing() {
#if !STARFISH_HAVE_IO_URING
  return nullptr;
#else
  if (!ring_available_.load(std::memory_order_relaxed)) return nullptr;
  // One lazily created ring per (thread, volume). The slot caches failure
  // too (null ring), so a thread that cannot get a ring probes once and
  // then stays on pread/pwrite.
  struct Slot {
    uint64_t serial = 0;
    std::shared_ptr<IoRing> ring;
    Slot(uint64_t s, std::shared_ptr<IoRing> r)
        : serial(s), ring(std::move(r)) {}
    Slot(Slot&&) = default;
    Slot& operator=(Slot&&) = default;
    ~Slot() {
      // Publish every use this thread made of the ring before the reaper
      // may Shutdown() it (pairs with the acquire load in the reap loop).
      if (ring != nullptr) {
        ring->owner_detached.store(true, std::memory_order_release);
      }
    }
  };
  thread_local std::vector<Slot> slots;
  for (const Slot& s : slots) {
    if (s.serial != serial_) continue;
    if (s.ring == nullptr || s.ring->down.load(std::memory_order_relaxed) ||
        s.ring->broken.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    return s.ring.get();
  }
  // Drop slots whose rings were shut down (their volumes are gone) before
  // growing the cache; slots that cached a creation failure stay (they are
  // the "don't retry every I/O" memo and cost 24 bytes).
  slots.erase(std::remove_if(slots.begin(), slots.end(),
                             [](const Slot& s) {
                               return s.ring != nullptr &&
                                      s.ring->down.load(
                                          std::memory_order_relaxed);
                             }),
              slots.end());
  std::shared_ptr<IoRing> ring;
  {
    std::lock_guard<std::mutex> reg_lock(registry_->mu);
    if (!registry_->closed) {
      // Reap rings whose threads exited: under mu, the registry holding
      // the only reference means no thread-local slot can reach the ring
      // anymore (slots are only created right here, under this lock). The
      // acquire load of owner_detached is load-bearing: it synchronizes
      // with the Slot destructor's release store, ordering the dead
      // thread's lock-free ring uses before our Shutdown(). If the flag
      // is not visible yet, skip — the ring gets reaped on a later pass.
      for (auto it = registry_->rings.begin();
           it != registry_->rings.end();) {
        if (it->use_count() == 1 &&
            (*it)->owner_detached.load(std::memory_order_acquire)) {
          (*it)->Shutdown();
          it = registry_->rings.erase(it);
        } else {
          ++it;
        }
      }
      ring = IoRing::Create(direct_options_.ring_depth);
      if (ring != nullptr) registry_->rings.push_back(ring);
    }
  }
  slots.push_back(Slot{serial_, ring});
  return ring != nullptr ? ring.get() : nullptr;
#endif
}

Status DirectVolume::Execute(const std::vector<IoOp>& ops, bool write) {
#if STARFISH_HAVE_IO_URING
  IoRing* ring = AcquireRing();
  if (ring != nullptr) {
    ring->MaybeSyncRegistrations(this);
    Result<uint64_t> ticket =
        ring->SubmitTicket(ops.data(), ops.size(), write, {});
    if (!ticket.ok()) return ticket.status();
    return ring->WaitTicket(*ticket);
  }
#endif
  for (const IoOp& op : ops) {
    STARFISH_RETURN_NOT_OK(ExecuteSync(op, write, 0));
  }
  return Status::OK();
}

bool DirectVolume::supports_async_read() const {
  return ring_available_.load(std::memory_order_relaxed);
}

Result<uint64_t> DirectVolume::SubmitReadChained(
    const std::vector<PageId>& ids, const std::vector<char*>& outs) {
  if (ids.empty()) return Status::InvalidArgument("empty chained read");
  if (ids.size() != outs.size()) {
    return Status::InvalidArgument("chained read: ids/outs size mismatch");
  }
  IoRing* ring = AcquireRing();
  bool async_ok = ring != nullptr;
  if (async_ok) {
    for (char* out : outs) {
      // Async completion cannot patch a bounce back into the caller's
      // buffer at a well-defined time; misaligned batches take the
      // blocking path (which bounces internally) instead.
      if (!DioEligible(out)) {
        async_ok = false;
        break;
      }
    }
  }
  if (!async_ok) {
    STARFISH_RETURN_NOT_OK(ReadChained(ids, outs));
    return uint64_t{0};  // completed sentinel, CompleteRead is a no-op
  }
  std::vector<IoOp> ops;
  ops.reserve(ids.size());
  const uint32_t page_size = options_.page_size;
  for (size_t i = 0; i < ids.size(); ++i) {
    STARFISH_RETURN_NOT_OK(CheckRange(ids[i], 1));
    uint64_t off = 0;
    const int fd = FdOf(ids[i], &off);
    ops.push_back(IoOp{fd, static_cast<uint32_t>(ids[i] / pages_per_extent_),
                       off, outs[i], page_size});
  }
  ring->MaybeSyncRegistrations(this);
  const size_t n = ops.size();
  Result<uint64_t> ticket =
      ring->SubmitTicket(nullptr, n, /*write=*/false, std::move(ops));
  if (!ticket.ok()) return ticket.status();
  // Metered at submit — one chained call, n page reads — exactly like the
  // blocking ReadChained, so async prefetch pipelines keep the paper's
  // call/page accounting.
  stats_.CountRead(n);
  return *ticket;
}

Status DirectVolume::CompleteRead(uint64_t ticket) {
  if (ticket == 0) return Status::OK();
  IoRing* ring = AcquireRing();
  if (ring == nullptr) {
    return Status::Internal(
        "CompleteRead: calling thread has no usable ring (tickets are "
        "thread-local)");
  }
  return ring->WaitTicket(ticket);
}

void DirectVolume::RegisterIoMemory(const void* base, size_t bytes) {
  if (base == nullptr || bytes == 0) return;
  std::lock_guard<std::mutex> lock(registry_->mu);
  registry_->regions.push_back(RingRegistry::Region{
      reinterpret_cast<uintptr_t>(base), bytes});
  registry_->regions_version.fetch_add(1, std::memory_order_release);
}

void DirectVolume::UnregisterIoMemory(const void* base) {
  std::lock_guard<std::mutex> lock(registry_->mu);
  const uintptr_t addr = reinterpret_cast<uintptr_t>(base);
  auto& regions = registry_->regions;
  const size_t before = regions.size();
  regions.erase(std::remove_if(regions.begin(), regions.end(),
                               [addr](const RingRegistry::Region& r) {
                                 return r.base == addr;
                               }),
                regions.end());
  if (regions.size() != before) {
    registry_->regions_version.fetch_add(1, std::memory_order_release);
  }
}

bool DirectVolume::registered_buffers_active() {
  IoRing* ring = AcquireRing();
  if (ring == nullptr) return false;
  ring->MaybeSyncRegistrations(this);
  return ring->bufs_registered;
}

bool DirectVolume::registered_files_active() {
  IoRing* ring = AcquireRing();
  if (ring == nullptr) return false;
  ring->MaybeSyncRegistrations(this);
  return ring->files_registered;
}

size_t DirectVolume::ring_count() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  return registry_->rings.size();
}

Status DirectVolume::ReadRun(PageId first, uint32_t count, char* out) {
  STARFISH_RETURN_NOT_OK(CheckRange(first, count));
  const uint32_t page_size = options_.page_size;
  thread_local std::vector<IoOp> ops;
  thread_local AlignedBuffer bounce;
  ops.clear();
  // All per-extent segments sit at multiples of page_size from `out`, so
  // one check covers the whole run.
  const bool direct_ok = DioEligible(out) && page_size % dio_mem_align_ == 0;
  char* base = out;
  if (!direct_ok) {
    if (!bounce.Reserve(static_cast<size_t>(count) * page_size,
                        kBounceAlign)) {
      return Status::ResourceExhausted("cannot allocate bounce buffer");
    }
    base = bounce.data();
  }
  BuildRunOps(first, count, base, &ops);
  STARFISH_RETURN_NOT_OK(Execute(ops, /*write=*/false));
  if (!direct_ok) {
    std::memcpy(out, base, static_cast<size_t>(count) * page_size);
  }
  stats_.CountRead(count);
  return Status::OK();
}

Status DirectVolume::WriteRun(PageId first, uint32_t count, const char* src) {
  STARFISH_RETURN_NOT_OK(CheckRange(first, count));
  const uint32_t page_size = options_.page_size;
  thread_local std::vector<IoOp> ops;
  thread_local AlignedBuffer bounce;
  ops.clear();
  const bool direct_ok = DioEligible(src) && page_size % dio_mem_align_ == 0;
  char* base = const_cast<char*>(src);  // write ops never modify the buffer
  if (!direct_ok) {
    if (!bounce.Reserve(static_cast<size_t>(count) * page_size,
                        kBounceAlign)) {
      return Status::ResourceExhausted("cannot allocate bounce buffer");
    }
    std::memcpy(bounce.data(), src, static_cast<size_t>(count) * page_size);
    base = bounce.data();
  }
  BuildRunOps(first, count, base, &ops);
  STARFISH_RETURN_NOT_OK(Execute(ops, /*write=*/true));
  stats_.CountWrite(count);
  return Status::OK();
}

Status DirectVolume::ReadChained(const std::vector<PageId>& ids,
                                 const std::vector<char*>& outs) {
  if (ids.empty()) return Status::InvalidArgument("empty chained read");
  if (ids.size() != outs.size()) {
    return Status::InvalidArgument("chained read: ids/outs size mismatch");
  }
  const uint32_t page_size = options_.page_size;
  thread_local std::vector<IoOp> ops;
  thread_local std::vector<uint32_t> patch;
  thread_local AlignedBuffer bounce;
  ops.clear();
  patch.clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    STARFISH_RETURN_NOT_OK(CheckRange(ids[i], 1));
    char* buf = outs[i];
    if (!DioEligible(buf)) {
      // Reserved lazily: the dominant callers (buffer-pool frames and
      // prefetch staging) are aligned and never pay for a bounce arena.
      if (patch.empty() &&
          !bounce.Reserve(ids.size() * static_cast<size_t>(page_size),
                          kBounceAlign)) {
        return Status::ResourceExhausted("cannot allocate bounce buffer");
      }
      buf = bounce.data() + i * page_size;
      patch.push_back(static_cast<uint32_t>(i));
    }
    uint64_t off = 0;
    const int fd = FdOf(ids[i], &off);
    ops.push_back(IoOp{fd, static_cast<uint32_t>(ids[i] / pages_per_extent_),
                       off, buf, page_size});
  }
  STARFISH_RETURN_NOT_OK(Execute(ops, /*write=*/false));
  for (const uint32_t i : patch) {
    std::memcpy(outs[i], bounce.data() + static_cast<size_t>(i) * page_size,
                page_size);
  }
  stats_.CountRead(ids.size());
  return Status::OK();
}

Status DirectVolume::WriteChained(const std::vector<PageId>& ids,
                                  const std::vector<const char*>& srcs) {
  if (ids.empty()) return Status::InvalidArgument("empty chained write");
  if (ids.size() != srcs.size()) {
    return Status::InvalidArgument("chained write: ids/srcs size mismatch");
  }
  const uint32_t page_size = options_.page_size;
  thread_local std::vector<IoOp> ops;
  thread_local AlignedBuffer bounce;
  ops.clear();
  bool bounce_reserved = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    STARFISH_RETURN_NOT_OK(CheckRange(ids[i], 1));
    char* buf = const_cast<char*>(srcs[i]);
    if (!DioEligible(buf)) {
      // Reserved lazily, as in ReadChained: aligned sources (the frame
      // arena) never pay for a bounce arena.
      if (!bounce_reserved &&
          !bounce.Reserve(ids.size() * static_cast<size_t>(page_size),
                          kBounceAlign)) {
        return Status::ResourceExhausted("cannot allocate bounce buffer");
      }
      bounce_reserved = true;
      buf = bounce.data() + i * page_size;
      std::memcpy(buf, srcs[i], page_size);
    }
    uint64_t off = 0;
    const int fd = FdOf(ids[i], &off);
    ops.push_back(IoOp{fd, static_cast<uint32_t>(ids[i] / pages_per_extent_),
                       off, buf, page_size});
  }
  STARFISH_RETURN_NOT_OK(Execute(ops, /*write=*/true));
  stats_.CountWrite(ids.size());
  return Status::OK();
}

Status DirectVolume::ReadRunZeroCopy(PageId first, uint32_t count,
                                     std::vector<const char*>* views) {
  (void)first;
  (void)count;
  (void)views;
  return Status::NotSupported(
      "DirectVolume keeps no memory image; use ReadRun "
      "(supports_zero_copy() is false)");
}

Status DirectVolume::ReadChainedZeroCopy(const std::vector<PageId>& ids,
                                         std::vector<const char*>* views) {
  (void)ids;
  (void)views;
  return Status::NotSupported(
      "DirectVolume keeps no memory image; use ReadChained "
      "(supports_zero_copy() is false)");
}

Status DirectVolume::WritePageUnmetered(PageId id, const char* src) {
  STARFISH_RETURN_NOT_OK(CheckRange(id, 1));
  const uint32_t page_size = options_.page_size;
  thread_local std::vector<IoOp> ops;
  thread_local AlignedBuffer bounce;
  ops.clear();
  char* buf = const_cast<char*>(src);
  if (!DioEligible(buf)) {
    if (!bounce.Reserve(page_size, kBounceAlign)) {
      return Status::ResourceExhausted("cannot allocate bounce buffer");
    }
    std::memcpy(bounce.data(), src, page_size);
    buf = bounce.data();
  }
  uint64_t off = 0;
  const int fd = FdOf(id, &off);
  ops.push_back(IoOp{fd, static_cast<uint32_t>(id / pages_per_extent_), off,
                     buf, page_size});
  return Execute(ops, /*write=*/true);  // deliberately unmetered
}

Status DirectVolume::Sync() {
#if !STARFISH_HAVE_ODIRECT
  return Status::NotSupported("DirectVolume requires a platform with O_DIRECT");
#else
  size_t extent_count = 0;
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    extent_count = open_extents_;
  }
  for (size_t i = 0; i < extent_count; ++i) {
    const int fd = fds_[i].load(std::memory_order_acquire);
    // O_DIRECT moved the data, but block allocations (writes into holes)
    // still live in dirty filesystem metadata until fdatasync.
    if (fd >= 0 && ::fdatasync(fd) != 0) {
      return Status::IOError("fdatasync " + ExtentPath(i) + ": " +
                             std::strerror(errno));
    }
  }
  if (dir_dirty_.load(std::memory_order_relaxed)) {
    // New extent files: their directory entries must be durable before the
    // allocator journal (and later the catalog) may reference their pages.
    STARFISH_RETURN_NOT_OK(SyncDir(dir_));
    dir_dirty_.store(false, std::memory_order_relaxed);
  }
  return journal_.Checkpoint(CurrentMetaState());
#endif
}

}  // namespace starfish
