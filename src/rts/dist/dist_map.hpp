// rts::DistMap<K, V>: a relocatable distributed hash map.
//
// The map is P ordinary mage components (MapPartition<K, V>), each a
// Registry-bound, epoch-fenced, mage.move-able object holding the keys
// that hash into its slot (dist/layout.hpp).  The client half is a thin
// router: every operation is an AsyncClient invoke against the owning
// partition, so Moved-hint chasing, epoch fencing, and relocation repair
// all come from the facade — a partition migrating mid-operation costs the
// caller a redirect, never a wrong answer.  Fan-out operations
// (size/reduce/digest) are `when_all` over every partition, folded in
// partition-index order so the result is placement-independent.
//
// At-most-once caveat (docs/API.md): `apply` is a read-modify-write.  A
// policy-level retry or application-level re-send after a lost reply may
// re-execute it — only transport retransmission (same request id) is
// at-most-once safe.  Workloads that need driver-side retries should use
// `expand`, the first-write-wins variant: duplicates hit the existing
// entry, count into dup_hits(), and leave value and per-key exec counters
// untouched, so retrying it from the application is safe by construction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rts/async_client.hpp"
#include "rts/class_world.hpp"
#include "rts/component.hpp"
#include "rts/directory.hpp"
#include "rts/dist/layout.hpp"
#include "rts/dist/partition_table.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "serial/traits.hpp"

namespace mage::rts::dist {

// One partition's state and methods.  Registered once per (K, V)
// instantiation under the name passed to DistMap::register_class; the
// whole std::map migrates by weak migration like any other MageObject.
template <serial::WireType K, serial::WireType V>
class MapPartition : public MageObject {
 public:
  // Set by DistMap::register_class; one registered class per (K, V)
  // instantiation (partition objects must report the name the ClassWorld
  // knows them by, or migration would re-instantiate the wrong class).
  static inline std::string registered_name = "MapPartition";

  [[nodiscard]] std::string class_name() const override {
    return registered_name;
  }

  void serialize(serial::Writer& w) const override {
    serial::put(w, data_);
    serial::put(w, execs_);
    w.write_i64(dup_hits_);
  }

  void deserialize(serial::Reader& r) override {
    data_ = serial::get<std::map<K, V>>(r);
    execs_ = serial::get<std::map<K, std::int64_t>>(r);
    dup_hits_ = r.read_i64();
  }

  // --- remotely invocable methods ----------------------------------------

  [[nodiscard]] std::optional<V> get(K key) const {
    auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }

  // Returns true when the key was new.
  bool put(K key, V value) {
    return data_.insert_or_assign(std::move(key), std::move(value)).second;
  }

  // Read-modify-write accumulate; bumps the key's exec counter.  NOT safe
  // to retry from outside the transport (see the header caveat).
  V apply(K key, V delta) {
    V& slot = data_[key];
    slot += delta;
    ++execs_[key];
    return slot;
  }

  // First-write-wins: idempotent from the caller's point of view.  The
  // first execution stores `value` and sets the key's exec counter to 1;
  // every later arrival (a retried or duplicated call) leaves both alone
  // and counts into dup_hits_.
  V expand(K key, V value) {
    auto [it, inserted] = data_.try_emplace(key, std::move(value));
    if (inserted) {
      execs_[it->first] = 1;
    } else {
      ++dup_hits_;
    }
    return it->second;
  }

  bool erase(K key) {
    execs_.erase(key);
    return data_.erase(key) > 0;
  }

  [[nodiscard]] std::uint64_t size() const { return data_.size(); }

  [[nodiscard]] std::int64_t exec_count(K key) const {
    auto it = execs_.find(key);
    return it == execs_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::int64_t dup_hits() const { return dup_hits_; }

  // Keys whose exec counter is not exactly 1 — the per-key exactly-once
  // check the chaos tests assert on.
  [[nodiscard]] std::uint64_t exec_violations() const {
    std::uint64_t bad = 0;
    for (const auto& [key, value] : data_) {
      (void)value;
      if (exec_count(key) != 1) ++bad;
    }
    return bad;
  }

  [[nodiscard]] V reduce_plus() const {
    V acc{};
    for (const auto& [key, value] : data_) {
      (void)key;
      acc += value;
    }
    return acc;
  }

  // FNV over the codec encoding of every (key, value, exec) in key order:
  // pure content, no clocks, no placement — bit-identical wherever the
  // partition happens to live and at any worker count.
  [[nodiscard]] std::uint64_t digest() const {
    serial::Writer w;
    for (const auto& [key, value] : data_) {
      serial::put(w, key);
      serial::put(w, value);
      w.write_i64(exec_count(key));
    }
    const serial::Buffer bytes = w.take();
    return hash_bytes(bytes.data(), bytes.size());
  }

 private:
  std::map<K, V> data_;
  std::map<K, std::int64_t> execs_;
  std::int64_t dup_hits_ = 0;
};

template <serial::WireType K, serial::WireType V>
class DistMap {
 public:
  using Partition = MapPartition<K, V>;

  DistMap(AsyncClient& client, std::string base, std::size_t partitions)
      : client_(client), table_(client, std::move(base), partitions) {}

  DistMap(const DistMap&) = delete;
  DistMap& operator=(const DistMap&) = delete;

  // Registers the partition class in the world.  Call once per process
  // (and per (K, V) instantiation) before any server instantiates or
  // receives a partition.  `apply_cost_us` is the simulated CPU cost of
  // one apply/expand at the hosting node — the cost that makes partition
  // placement show up in load probes.
  static void register_class(ClassWorld& world, const std::string& class_name,
                             std::int64_t apply_cost_us = 0) {
    Partition::registered_name = class_name;
    ClassBuilder<Partition>(world, class_name)
        .method("get", &Partition::get)
        .method("put", &Partition::put)
        .method("apply", &Partition::apply, apply_cost_us)
        .method("expand", &Partition::expand, apply_cost_us)
        .method("erase", &Partition::erase)
        .method("size", &Partition::size)
        .method("exec_count", &Partition::exec_count)
        .method("dup_hits", &Partition::dup_hits)
        .method("exec_violations", &Partition::exec_violations)
        .method("reduce_plus", &Partition::reduce_plus)
        .method("digest", &Partition::digest);
  }

  // Deployment-time: binds partition `index` on `server` and announces it
  // in the static directory (every node must already have the class
  // installed in its cache, like any deployed class).
  static void bind_partition(MageServer& server, Directory& directory,
                             const std::string& class_name,
                             const std::string& base, std::size_t index) {
    ComponentInfo info;
    info.name = partition_name(base, index);
    info.class_name = class_name;
    info.home = server.self();
    info.is_public = true;
    directory.announce(info);
    server.registry().bind(info.name, server.world().instantiate(class_name));
  }

  // --- keyed operations ----------------------------------------------------

  MageFuture<std::optional<V>> get(const K& key) {
    return client_.invoke<std::optional<V>>(owner(key), "get", key);
  }

  MageFuture<bool> put(const K& key, const V& value) {
    return client_.invoke<bool>(owner(key), "put", key, value);
  }

  MageFuture<V> apply(const K& key, const V& delta) {
    return client_.invoke<V>(owner(key), "apply", key, delta);
  }

  MageFuture<V> expand(const K& key, const V& value) {
    return client_.invoke<V>(owner(key), "expand", key, value);
  }

  MageFuture<bool> erase(const K& key) {
    return client_.invoke<bool>(owner(key), "erase", key);
  }

  MageFuture<std::int64_t> exec_count(const K& key) {
    return client_.invoke<std::int64_t>(owner(key), "exec_count", key);
  }

  // --- fan-out operations (when_all over every partition) ------------------

  MageFuture<std::uint64_t> size() {
    return fan_in<std::uint64_t>(
        "size", 0, [](std::uint64_t acc, const std::uint64_t& part,
                      std::size_t) { return acc + part; });
  }

  MageFuture<V> reduce_plus() {
    return fan_in<V>("reduce_plus", V{},
                     [](V acc, const V& part, std::size_t) {
                       acc += part;
                       return acc;
                     });
  }

  MageFuture<std::int64_t> dup_hits() {
    return fan_in<std::int64_t>(
        "dup_hits", 0, [](std::int64_t acc, const std::int64_t& part,
                          std::size_t) { return acc + part; });
  }

  MageFuture<std::uint64_t> exec_violations() {
    return fan_in<std::uint64_t>(
        "exec_violations", 0,
        [](std::uint64_t acc, const std::uint64_t& part, std::size_t) {
          return acc + part;
        });
  }

  // Whole-map digest: partition digests folded in partition-index order —
  // placement- and worker-count-independent.
  MageFuture<std::uint64_t> digest() {
    return fan_in<std::uint64_t>(
        "digest", kFnvOffset,
        [](std::uint64_t acc, const std::uint64_t& part, std::size_t) {
          return fold_hash(acc, part);
        });
  }

  [[nodiscard]] PartitionTable& table() { return table_; }
  [[nodiscard]] AsyncClient& client() { return client_; }

 private:
  // Routes a key: partition index -> component name (touching the table so
  // repairs are observed).
  const std::string& owner(const K& key) {
    const std::size_t index = partition_of(key, table_.partitions());
    table_.route(index);
    return table_.name_of(index);
  }

  template <typename R, typename Fold>
  MageFuture<R> fan_in(const std::string& method, R init, Fold fold) {
    std::vector<MageFuture<R>> calls;
    calls.reserve(table_.partitions());
    for (std::size_t i = 0; i < table_.partitions(); ++i) {
      table_.route(i);
      calls.push_back(client_.invoke<R>(table_.name_of(i), method));
    }
    return when_all(calls).then([init, fold](std::vector<R>& parts) {
      R acc = init;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        acc = fold(acc, parts[i], i);
      }
      return acc;
    });
  }

  AsyncClient& client_;
  PartitionTable table_;
};

}  // namespace mage::rts::dist
