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
/// bursts — full_recompile(), or adopt() when a warm restart restores it.
///
/// The fast stage is two pieces. signature() is p's restricted signature:
/// the clauses p falls into now and its default vector — the §4.2 FEC
/// signature of one prefix, found by one walk of a trie of every clause's
/// destination blocks. compose() turns a signature and a binding into
/// rules: synthesis, then the compiler's one serial composer
/// (SdxCompiler::compose_serial) through the engine's Stage2Memo. The
/// clause index behind signature() and the memo are built on first use and
/// dropped by every full_recompile() and adopt(): after install() each
/// inbound change and each pairwise outbound change ends in one of them,
/// and recompile_partition() drops the clause index for the outbound
/// change it swaps in. The runtime interns bindings by signature and
/// composes only a signature no live binding has (see install_stage.hpp).
///
/// fast_update_batch() is the paper's fresh-VNH stage built on the two
/// pieces, and a single update is a batch of one. A burst groups prefixes
/// with identical signatures (a mini-FEC over the dirty set) under one
/// fresh binding and allocates VNHs in a single sweep; Figures 9 and 10
/// measure it.

#include <optional>
#include <vector>

#include "netbase/prefix_trie.hpp"
#include "sdx/compiler.hpp"

namespace sdx::core {

class IncrementalEngine {
 public:
  explicit IncrementalEngine(SdxCompiler compiler)
      : compiler_(std::move(compiler)) {}

  /// The background stage: full pipeline, minimal rule table. Replaces the
  /// engine's current state. Runs the compiler's parallel pipeline at
  /// CompileOptions::threads width. Drops the clause index and empties the
  /// stage-2 memo, so the fast stage that follows composes under the
  /// policies compiled here.
  const CompiledSdx& full_recompile(VnhAllocator& vnh);

  /// Installs an externally-compiled result as the engine's current state,
  /// exactly as if full_recompile() had produced it (clause index and memo
  /// dropped) — how a warm restart takes over a checkpoint's compiled
  /// tables without compiling.
  const CompiledSdx& adopt(CompiledSdx compiled);

  /// Attaches the measurement plane to the underlying compiler (see
  /// SdxCompiler::set_telemetry); nullptr detaches.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    compiler_.set_telemetry(telemetry);
  }

  bool has_compiled() const { return current_.has_value(); }
  const CompiledSdx& current() const { return *current_; }

  /// A prefix's restricted signature: the outbound clauses it falls into
  /// now (global clause ids, slot-major, ascending) and its default vector.
  /// Prefixes with equal signatures behave identically through the fabric
  /// (§4.2), so one binding and one composed rule group serve them all.
  struct Signature {
    std::vector<std::uint32_t> clauses;
    DefaultVector defaults;
    bool operator==(const Signature&) const = default;
  };
  struct SignatureHash {
    std::size_t operator()(const Signature& sig) const;
  };

  /// \p prefix's signature under the current policy and RIB, or
  /// std::nullopt when the prefix needs no binding: no clause covers it and
  /// (without VMAC grouping, or with no best route anywhere) no default
  /// rule either — it is re-advertised with its own next hop.
  std::optional<Signature> signature(Ipv4Prefix prefix);

  /// The rules of \p sig under \p binding's VMAC: its clauses' and
  /// defaults' stage-1 rules composed through the stage-2 memo,
  /// de-duplicated. Adds the stage-1 rules composed to \p compositions.
  policy::Classifier compose(const Signature& sig, const VnhBinding& binding,
                             std::size_t& compositions);

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

  /// The fresh-VNH fast stage: one restricted-compilation pass over every
  /// prefix in \p prefixes (duplicates collapse to their first occurrence),
  /// one fresh binding per distinct signature. A single updated prefix is
  /// the batch {p}.
  BatchResult fast_update_batch(const std::vector<Ipv4Prefix>& prefixes,
                                VnhAllocator& vnh);

  /// Result of a single-partition recompilation: the replaced slot, the
  /// swapped-out partition's bindings, and the prefixes whose
  /// advertisement (to this partition's owner) must be refreshed — the
  /// union of the old and new partition coverage.
  struct PartitionUpdate {
    std::size_t slot = 0;
    double seconds = 0;
    std::vector<VnhBinding> replaced;
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

 private:
  /// A clause's owner and target: what signature() asks exports_to.
  struct ClauseEnds {
    ParticipantId owner;
    ParticipantId to;
  };

  /// Every outbound clause's ends by global id, and a trie of their
  /// destination blocks: built on first use after a (re)compile. It copies
  /// what it needs and points into no participant.
  struct ClauseIndex {
    std::vector<ClauseEnds> clauses;
    /// Destination block → the ids of the clauses restricted to it.
    net::PrefixTrie<std::vector<std::uint32_t>> blocks;
    std::vector<std::uint32_t> unrestricted;  ///< clauses with no dst block
  };

  const ClauseIndex& clause_index();

  SdxCompiler compiler_;
  std::optional<CompiledSdx> current_;
  Stage2Memo stage2_;
  std::optional<ClauseIndex> clauses_;
};

}  // namespace sdx::core
