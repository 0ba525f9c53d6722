#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/tid.h"
#include "util/coding.h"
#include "util/status.h"

/// \file transformation_table.h
/// The paper's in-memory "table with addresses".
///
/// DASDBS-NSM keeps, per object key, the addresses of the (four) relation
/// tuples that together store the object; NSM+index keeps, per key, the
/// addresses of all tuples with that root key. The paper deliberately does
/// not count the I/O of maintaining or probing this table ("we did not
/// account for additional I/Os needed to ... retrieve the tables with
/// addresses"), so it is a plain in-memory map here. The persistent
/// BPlusTree (bplus_tree.h) exists to quantify that hidden cost in the
/// ablation bench.

namespace starfish {

/// key -> ordered list of record addresses. No I/O is metered.
class TransformationTable {
 public:
  /// Replaces the address list of `key`.
  void Put(int64_t key, std::vector<Tid> addresses) {
    map_[key] = std::move(addresses);
  }

  /// Appends one address to `key`'s list.
  void Append(int64_t key, const Tid& address) {
    map_[key].push_back(address);
  }

  /// Address list for `key`, or NotFound.
  Result<std::vector<Tid>> Get(int64_t key) const {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return Status::NotFound("key " + std::to_string(key) +
                              " not in transformation table");
    }
    return it->second;
  }

  /// Address list for `key` without copying it, or nullptr. The pointer
  /// stays valid until the next mutation of the table — the same
  /// single-writer / multi-reader window every read path already runs in.
  const std::vector<Tid>* Find(int64_t key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Replaces one address in `key`'s list (old -> new), e.g. after a record
  /// moved. NotFound if the pair is absent.
  Status Replace(int64_t key, const Tid& old_addr, const Tid& new_addr) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      for (Tid& tid : it->second) {
        if (tid == old_addr) {
          tid = new_addr;
          return Status::OK();
        }
      }
    }
    return Status::NotFound("address " + old_addr.ToString() +
                            " not registered for key " + std::to_string(key));
  }

  Status Erase(int64_t key) {
    return map_.erase(key) > 0
               ? Status::OK()
               : Status::NotFound("key " + std::to_string(key));
  }

  bool Contains(int64_t key) const { return map_.count(key) > 0; }
  size_t size() const { return map_.size(); }

  /// Visits every registered (key, address) pair, in unspecified order.
  /// Crash recovery walks this to collect the catalog's live addresses.
  void ForEach(const std::function<void(int64_t, const Tid&)>& fn) const {
    for (const auto& [key, addrs] : map_) {
      for (const Tid& tid : addrs) fn(key, tid);
    }
  }

  /// Serializes the table for the persistent-store catalog.
  void SaveState(std::string* out) const {
    PutFixed64(out, static_cast<uint64_t>(map_.size()));
    for (const auto& [key, addrs] : map_) {
      PutFixed64(out, static_cast<uint64_t>(key));
      PutFixed32(out, static_cast<uint32_t>(addrs.size()));
      for (const Tid& tid : addrs) PutFixed64(out, tid.Pack());
    }
  }

  /// Restores the state written by SaveState, consuming it from `*in`.
  Status LoadState(std::string_view* in) {
    uint64_t entries = 0;
    if (!GetFixed64(in, &entries)) {
      return Status::Corruption("transformation table: truncated size");
    }
    // Counts come from disk: bound them by the bytes actually present
    // (each entry is at least 12 bytes) before any allocation, so a
    // corrupt file reports Corruption instead of throwing bad_alloc.
    if (entries > in->size() / 12) {
      return Status::Corruption("transformation table: implausible size");
    }
    map_.clear();
    map_.reserve(entries);
    for (uint64_t i = 0; i < entries; ++i) {
      uint64_t key = 0;
      uint32_t count = 0;
      if (!GetFixed64(in, &key) || !GetFixed32(in, &count)) {
        return Status::Corruption("transformation table: truncated entry");
      }
      if (count > in->size() / 8) {
        return Status::Corruption("transformation table: implausible entry");
      }
      std::vector<Tid> addrs;
      addrs.reserve(count);
      for (uint32_t j = 0; j < count; ++j) {
        uint64_t packed = 0;
        if (!GetFixed64(in, &packed)) {
          return Status::Corruption("transformation table: truncated tid");
        }
        addrs.push_back(Tid::Unpack(packed));
      }
      map_[static_cast<int64_t>(key)] = std::move(addrs);
    }
    return Status::OK();
  }

  /// Estimated resident bytes (for the ablation discussion: what the
  /// "free" index actually costs in memory).
  size_t EstimatedBytes() const {
    size_t bytes = 0;
    for (const auto& [key, addrs] : map_) {
      bytes += sizeof(key) + sizeof(addrs) + addrs.size() * sizeof(Tid);
    }
    return bytes;
  }

 private:
  std::unordered_map<int64_t, std::vector<Tid>> map_;
};

}  // namespace starfish
