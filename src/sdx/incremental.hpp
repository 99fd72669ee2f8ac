#pragma once

/// \file incremental.hpp
/// Two-stage incremental recompilation (paper §4.3.2).
///
/// When a BGP update changes the best path for a prefix p, the fast stage
/// "bypasses the actual computation of the VNH entirely by simply assuming
/// a new VNH is needed" and "restricts compilation to the parts of the
/// policy related to p": it allocates a fresh (VNH, VMAC), synthesizes only
/// the clause and default rules for p, composes them through the memoized
/// stage-2 classifiers and hands them back for installation at a higher
/// priority. The optimal recompilation (compute the true minimum disjoint
/// sets, rebuild the whole table) runs in the background between update
/// bursts — full_recompile(), or adopt() when the pipeline ran off-thread.
///
/// fast_update_batch() is the one fast stage, and a single update is a
/// batch of one. A burst shares the clause scan, groups prefixes with
/// identical restricted signatures (a mini-FEC over the dirty set) under
/// one fresh binding and allocates VNHs in a single sweep. Each group's
/// rules go through the compiler's one serial composer
/// (SdxCompiler::compose_serial) and the engine's Stage2Memo, which lives
/// as long as the engine and rebuilds an entry whenever its participant's
/// inbound clauses change.

#include <optional>
#include <vector>

#include "sdx/compiler.hpp"

namespace sdx::core {

class IncrementalEngine {
 public:
  explicit IncrementalEngine(SdxCompiler compiler)
      : compiler_(std::move(compiler)) {}

  /// The background stage: full pipeline, minimal rule table. Replaces the
  /// engine's current state. Runs the compiler's parallel pipeline at
  /// CompileOptions::threads width (see set_threads()).
  const CompiledSdx& full_recompile(VnhAllocator& vnh);

  /// Installs an externally-compiled result as the engine's current state,
  /// exactly as if full_recompile() had produced it — the swap half of the
  /// asynchronous background recompilation's double buffer.
  const CompiledSdx& adopt(CompiledSdx compiled);

  /// Re-sizes the parallel pipeline used by full_recompile() (0 = one
  /// thread per hardware thread). Output is unaffected.
  void set_threads(unsigned threads) { compiler_.set_threads(threads); }

  /// Attaches the measurement plane to the underlying compiler (see
  /// SdxCompiler::set_telemetry); nullptr detaches.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    compiler_.set_telemetry(telemetry);
  }

  bool has_compiled() const { return current_.has_value(); }
  const CompiledSdx& current() const { return *current_; }
  CompiledSdx& current() { return *current_; }

  /// One dirty prefix of a batched flush. Prefixes whose restricted
  /// signatures coincide share a binding (and their rules were emitted
  /// once); `additional_rules` attributes the group's rule count to its
  /// first member so the per-item counts sum to the batch total.
  struct BatchItem {
    Ipv4Prefix prefix;
    std::optional<VnhBinding> binding;
    std::size_t additional_rules = 0;
  };

  struct BatchResult {
    std::vector<BatchItem> items;     ///< input order, deduplicated
    std::vector<policy::Rule> rules;  ///< combined, duplicate-free
    std::size_t additional_rules = 0;
    std::size_t compositions = 0;     ///< stage-1 rules composed (whole batch)
    double seconds = 0;
  };

  /// The fast stage: one restricted-compilation pass over every prefix in
  /// \p prefixes (duplicates collapse to their first occurrence). A single
  /// updated prefix is the batch {p}.
  BatchResult fast_update_batch(const std::vector<Ipv4Prefix>& prefixes,
                                VnhAllocator& vnh);

  /// Result of a single-partition recompilation: the replaced slot, the
  /// fresh attribute-encoded bindings to ARP-bind, and the prefixes whose
  /// advertisement (to this partition's owner) must be refreshed — the
  /// union of the old and new partition coverage.
  struct PartitionUpdate {
    std::size_t slot = 0;
    double seconds = 0;
    std::vector<VnhBinding> bindings;
    std::vector<Ipv4Prefix> affected;  ///< sorted (deterministic order)
  };

  /// Recompiles exactly one participant's partition (partitioned mode only;
  /// throws std::logic_error otherwise): the owner's clause reaches, then
  /// the full compile's per-partition routine (SdxCompiler::
  /// compile_partitions) over that one slot — FECs, fresh bindings
  /// continuing the allocator watermark (like fast-path bindings; the next
  /// full recompile reclaims the leaked ids), synthesis, composition
  /// through the engine's stage-2 memo and dedup. Swaps the partition into
  /// the current state and re-derives the fabric; every other partition and
  /// the shared band are untouched — the ≥10× work saving of a
  /// single-participant policy change.
  PartitionUpdate recompile_partition(ParticipantId owner, VnhAllocator& vnh);

  const SdxCompiler& compiler() const { return compiler_; }

 private:
  struct Hit {
    const Participant* owner;
    const OutboundClause* clause;
    std::uint32_t id;  ///< global clause id (slot-major) — the signature key
  };

  std::vector<Hit> hits_for(Ipv4Prefix prefix) const;

  SdxCompiler compiler_;
  std::optional<CompiledSdx> current_;
  Stage2Memo stage2_;
};

}  // namespace sdx::core
