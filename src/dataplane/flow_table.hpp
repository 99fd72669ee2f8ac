#pragma once

/// \file flow_table.hpp
/// An OpenFlow-style single-table flow table: prioritized ternary rules
/// with rewrite/output actions and per-rule counters. This is the install
/// target of the SDX compiler (the paper deploys on Open vSwitch; rule
/// counts, not throughput, are what the evaluation measures — but the
/// ROADMAP's live-traffic scenarios need real per-packet performance, so
/// lookups run through a classification pipeline, see
/// packet_classifier.hpp).
///
/// Storage is arena-style: rules live in stable deque slots that are
/// tombstoned on removal and recycled on install, so install_classifier /
/// remove_by_cookie never reshuffle a giant sorted vector and rule
/// pointers stay valid across unrelated mutations.
///
/// Concurrency: lookup() and process() are read-only on the table
/// structure and use relaxed atomics for all counters — any number of
/// threads may classify packets concurrently, as long as no
/// install/remove/clear runs at the same time (single-writer, externally
/// synchronized, exactly like a hardware table update).

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataplane/packet_classifier.hpp"
#include "netbase/field_match.hpp"
#include "netbase/packet.hpp"
#include "policy/classifier.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::dp {

using net::FlowMatch;
using net::PacketHeader;
using net::PortId;
using policy::ActionSeq;
using policy::Classifier;

/// A monotonically increasing counter mutable from const lookup paths.
/// Relaxed ordering is sufficient: each increment is independent and reads
/// only need eventual totals (same contract as telemetry counters). Copying
/// snapshots the value, which keeps FlowRule copyable.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) : v_(o.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  void inc() const { v_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return value(); }

 private:
  mutable std::atomic<std::uint64_t> v_{0};
};

/// One installed flow rule. Higher priority wins; ties break on insertion
/// order (earlier first), matching the deterministic order of a compiled
/// classifier.
struct FlowRule {
  std::uint32_t priority = 0;
  FlowMatch match;
  std::vector<ActionSeq> actions;  ///< empty = drop
  std::uint64_t cookie = 0;        ///< rule group tag, for bulk removal
  RelaxedCounter packet_count;

  bool drops() const { return actions.empty(); }
  /// Appends the frames this rule's actions make of \p h (none for a drop).
  /// The one action-application step of process(), process_batch() and
  /// probe(); it bumps no counter.
  void apply(const PacketHeader& h, std::vector<PacketHeader>& out) const {
    for (const auto& a : actions) out.push_back(a.apply(h));
  }
  std::string to_string() const;
};

/// The reference scan: the first rule of \p ordered (a rules() list, in
/// match order) that matches \p h; nullptr when none does. FlowTable::lookup
/// must return the identical rule on the same table — tests, the
/// differential oracle and the benches compare the two.
const FlowRule* reference_lookup(std::span<const FlowRule* const> ordered,
                                 const PacketHeader& h);

class FlowTable {
 public:
  /// Installs one rule.
  void install(FlowRule rule);

  /// Installs a whole classifier as one priority band: rule i of the
  /// classifier gets priority base + size - 1 - i, so classifier order is
  /// preserved. All rules are tagged with \p cookie.
  void install_classifier(const Classifier& c, std::uint32_t priority_base,
                          std::uint64_t cookie);

  /// Removes every rule tagged with \p cookie; returns how many.
  std::size_t remove_by_cookie(std::uint64_t cookie);

  void clear();

  /// Highest-priority matching rule (nullptr when none matches).
  const FlowRule* lookup(const PacketHeader& h) const;

  /// Table-hit processing: applies the matching rule's actions and bumps
  /// its counter. No match or a drop rule yields an empty set.
  std::vector<PacketHeader> process(const PacketHeader& h) const;

  /// process() without the accounting: the same frames, but no table or
  /// rule counter moves. The safety checker's step — verifying the
  /// deployment is not traffic.
  std::vector<PacketHeader> probe(const PacketHeader& h) const;

  /// Burst lookup: out[i] = lookup(pkts[i]) for every i, amortized across
  /// the burst (see PacketClassifier::lookup_batch). Requires
  /// out.size() >= pkts.size().
  void lookup_batch(std::span<const PacketHeader> pkts,
                    std::span<const FlowRule*> out) const;

  /// Flattened result of a burst of process() calls: packet i's output
  /// frames are frames[offsets[i] .. offsets[i+1]). One allocation-stable
  /// pair of arrays instead of a vector-of-vectors.
  struct BatchResult {
    std::vector<PacketHeader> frames;
    std::vector<std::uint32_t> offsets;  ///< pkts.size() + 1 entries

    std::size_t packets() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
    std::span<const PacketHeader> frames_of(std::size_t i) const {
      return {frames.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }
  };

  /// Burst processing: per packet, exactly process()'s semantics — same
  /// rule hit, same action application, and counter totals identical to
  /// per-packet processing (match/miss totals are batch-added; per-rule
  /// packet counts bump once per hit). Same concurrency contract as
  /// process(): any number of threads may run bursts concurrently as long
  /// as no mutation runs.
  BatchResult process_batch(std::span<const PacketHeader> pkts) const;

  std::size_t size() const { return alive_; }

  /// Live rules in match order (priority desc, insertion asc). Built per
  /// call; the pointers stay valid until the rules are removed or the
  /// table cleared.
  std::vector<const FlowRule*> rules() const;

  /// Position of \p rule in the rules() match order; nullopt when the
  /// pointer is not a live rule of this table.
  std::optional<std::size_t> index_of(const FlowRule* rule) const;

  /// Adopts the control plane's VMAC bit layout: masked dst-MAC rules that
  /// match the layout's shapes are re-indexed into exact-match lanes. All
  /// live rules are re-indexed; semantics never change, only probe cost.
  void set_vmac_lanes(const VmacLaneSpec& spec);

  const PacketClassifier& classifier() const { return classifier_; }

  /// Test seam for the differential oracle's fault self-check: wipes the
  /// classifier index without touching rule storage, so lookup() visibly
  /// diverges from reference_lookup().
  void corrupt_classifier_for_test() { classifier_.clear(); }

  /// Test seam for the oracle's batch-desync fault (equivalence g): makes
  /// the batched path behave as if it consulted a stale, empty index
  /// snapshot — every burst packet misses — while per-packet lookups stay
  /// correct. Single lookup()/process() are unaffected.
  void plant_batch_desync_for_test() { batch_desync_ = true; }

  std::uint64_t total_matched() const {
    return matched_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_missed() const {
    return missed_.load(std::memory_order_relaxed);
  }

  /// Mirrors match/miss accounting into registry counters (either may be
  /// nullptr to detach). The counters must outlive the table's use.
  void set_counters(telemetry::Counter* matched, telemetry::Counter* missed) {
    match_counter_ = matched;
    miss_counter_ = missed;
  }

  std::string to_string() const;

 private:
  struct Slot {
    FlowRule rule;
    std::uint64_t seq = 0;
    bool alive = false;
  };

  // Deque keeps slot addresses stable across growth; tombstoned slots are
  // recycled through free_ so long-lived tables don't leak arena space.
  std::deque<Slot> slots_;
  std::vector<std::size_t> free_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> cookie_index_;
  std::size_t alive_ = 0;
  std::uint64_t next_sequence_ = 0;

  PacketClassifier classifier_;
  bool batch_desync_ = false;  ///< oracle test seam, see above

  mutable std::atomic<std::uint64_t> matched_{0};
  mutable std::atomic<std::uint64_t> missed_{0};
  telemetry::Counter* match_counter_ = nullptr;
  telemetry::Counter* miss_counter_ = nullptr;
};

std::ostream& operator<<(std::ostream& os, const FlowTable& t);

}  // namespace sdx::dp
