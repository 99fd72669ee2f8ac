#pragma once

/// \file compiler.hpp
/// The SDX policy compiler (paper §4): turns participant clause lists plus
/// the route server's state into one prioritized rule list for the physical
/// switch.
///
/// Pipeline (optimized mode, the paper's production path):
///   1. clause reach sets   — restrict every outbound clause to the prefixes
///                            its target actually exported to the sender;
///   2. FEC computation     — Minimum Disjoint Subsets over reach sets and
///                            per-participant defaults, read from the live
///                            route server for each reached prefix
///                            (defaults_for; fec.hpp);
///   3. VNH/VMAC assignment — one binding per group (vnh_allocator.hpp);
///   4. stage-1 synthesis   — outbound clause rules matching (inport, VMAC,
///                            other fields), remote-participant rewrite
///                            rules, per-group default rules (majority
///                            next-hop + per-sender overrides) and
///                            MAC-learning rules for ungrouped prefixes;
///   5. stage-2 synthesis   — per-participant inbound classifiers (inbound
///                            TE clauses, port-specific MAC rules, egress
///                            MAC rewrite default), memoized in a
///                            Stage2Memo;
///   6. targeted composition — each stage-1 rule is sequentially composed
///                            only with the stage-2 classifier of the one
///                            participant it forwards into (§4.3.1).
///
/// Stage 1 is shared by the pairwise and the partitioned pipeline.
/// Stage 6 is one routine, compose_rule(): the pairwise fan-out, the
/// per-partition and shared-band composition, the incremental fast path
/// and the in-place partition recompile all compose through it.
///
/// CompileOptions exposes each §4.2/§4.3 optimization as a switch so the
/// ablation benchmark can price them individually.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/route_server.hpp"
#include "policy/classifier.hpp"
#include "sdx/fec.hpp"
#include "sdx/participant.hpp"
#include "sdx/port_map.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::net {
class ThreadPool;
}

namespace sdx::telemetry {
struct Telemetry;
class SpanTracer;
}

namespace sdx::core {

struct CompileOptions {
  /// §4.2 VMAC grouping. Off → clause and default rules match on
  /// destination IP prefixes directly (one rule per prefix, not per group).
  bool vmac_grouping = true;
  /// §4.3.1 compose each stage-1 rule only with its target's stage-2
  /// classifier. Off → compose against the concatenation of all stage-2
  /// classifiers.
  bool prune_pairs = true;
  /// §4.3.1 memoize per-participant stage-2 classifiers. Off → rebuild the
  /// stage-2 classifier for every composed rule.
  bool memoize_stage2 = true;
  /// iSDX-style partitioned compilation: each participant's outbound
  /// policies compile into an independent partition whose stage-1 rules
  /// match attribute bits of the VMAC under a mask, replacing the pairwise
  /// sender×receiver cross product. Requires vmac_grouping. A policy change
  /// then recompiles one partition, not the world (see
  /// IncrementalEngine::recompile_partition).
  bool partitioned = false;
  /// The VMAC bit layout used by partitioned compilation (and validated by
  /// every allocator). Fingerprinted and persisted: changing it forces a
  /// cold install on warm restart.
  VmacLayout vmac_layout{};
  /// Execution width of the parallel pipeline stages (clause reach, FEC
  /// sharding, targeted composition): 0 = one thread per hardware
  /// thread, 1 = fully serial. The compiled output is
  /// byte-identical for every value — parallel stages write into
  /// index-owned slots and shard merges are canonicalized, never appended
  /// under contention.
  unsigned threads = 0;
};

struct CompileStats {
  std::size_t participants = 0;
  std::size_t prefixes_total = 0;     ///< prefixes known to the route server
  std::size_t prefixes_grouped = 0;   ///< prefixes touched by any policy
  std::size_t prefix_groups = 0;
  std::size_t clause_count = 0;
  std::size_t stage1_rules = 0;
  std::size_t final_rules = 0;
  std::size_t pair_compositions = 0;  ///< (stage-1 rule × stage-2 rule) visits
  unsigned threads_used = 1;          ///< pool width of the parallel stages
  double reach_seconds = 0;           ///< clause reach computation
  double vnh_seconds = 0;             ///< FEC + VNH assignment (paper's "VNH computation")
  double synth_seconds = 0;           ///< rule synthesis
  double compose_seconds = 0;         ///< targeted composition
  double total_seconds = 0;
};

/// One participant's independently compiled slice of the fabric
/// (partitioned mode): its own FECs over its own reach sets, its
/// attribute-encoded bindings, and the composed rules of its outbound
/// clauses. Replacing a partition never touches any other partition or the
/// shared band.
struct CompiledPartition {
  ParticipantId owner = 0;
  FecResult fecs;                     ///< groups over the owner's clauses
  std::vector<VnhBinding> bindings;   ///< parallel to fecs.groups
  std::vector<ClauseReach> reaches;   ///< owner's clauses, local indices
  policy::Classifier rules;           ///< composed outbound rules
  std::size_t stage1_rules = 0;       ///< pre-composition rule count
  std::size_t pair_compositions = 0;  ///< composition work for this slice
  double seconds = 0;                 ///< wall time across pipeline stages
};

/// The compiled artifact: the fabric rule list to install, plus what the
/// runtime advertises and ARP-binds alongside it — the FEC groups, one VNH
/// binding per group and the clause reach sets they were built from (and,
/// when partitioned, the per-participant partitions and the shared band).
struct CompiledSdx {
  policy::Classifier fabric;             ///< install into the switch
  FecResult fecs;
  std::vector<VnhBinding> bindings;      ///< parallel to fecs.groups
  std::vector<ClauseReach> reaches;      ///< global clause table
  CompileStats stats;

  VmacLayout layout;       ///< the VMAC layout the artifact was built under
  bool partitioned = false;
  /// Slot-indexed (parallel to the participant vector; remote slots stay
  /// empty). Empty unless partitioned. `fabric` is the concatenation of the
  /// partitions in slot order followed by `shared_rules` — partitions are
  /// the canonical form, `fabric` is derived (rebuild_fabric()).
  std::vector<CompiledPartition> partitions;
  /// The partition-independent band: remote rewrites, per-receiver masked
  /// default rules, MAC learning, catch-all drop.
  policy::Classifier shared_rules;

  /// The VNH to advertise for \p prefix, or std::nullopt when the prefix
  /// keeps its original next hop (not touched by any policy). Pairwise
  /// mode only — a partitioned artifact has no global binding map (the tag
  /// is sender-specific); use partition_binding_for.
  std::optional<VnhBinding> binding_for(Ipv4Prefix prefix) const {
    auto it = fecs.group_of.find(prefix);
    if (it == fecs.group_of.end()) return std::nullopt;
    return bindings[it->second];
  }

  /// The VNH to advertise *to the participant in \p sender_slot* for
  /// \p prefix: the binding of that sender's own partition group, carrying
  /// the sender's clause bitmap and default next-hop in the tag.
  std::optional<VnhBinding> partition_binding_for(std::size_t sender_slot,
                                                  Ipv4Prefix prefix) const {
    if (!partitioned || sender_slot >= partitions.size()) return std::nullopt;
    const auto& part = partitions[sender_slot];
    auto it = part.fecs.group_of.find(prefix);
    if (it == part.fecs.group_of.end()) return std::nullopt;
    return part.bindings[it->second];
  }

  /// Re-derives `fabric` from the partitions + shared band (partitioned
  /// mode). Called after a single partition is swapped in place.
  void rebuild_fabric();

  /// Deterministic digest of the compiled artifact: fabric rules (contents
  /// and order), VNH/VMAC bindings, FEC groups and clause reach sets, the
  /// VMAC layout and per-partition structure — everything except
  /// timings/stats. Two compilations are byte-identical iff their
  /// fingerprints compare equal; the warm-restart and threads-1-vs-N
  /// golden tests pivot on this.
  std::string fingerprint() const;
};

class SdxCompiler;

/// Slot-indexed memo of per-participant stage-2 classifiers (§4.3.1),
/// used by every composition: the full compile fills one per run, the
/// incremental engine keeps one between deploys. An entry is built on
/// first use and kept until clear(); its owner clears the memo whenever an
/// inbound policy may have changed (the engine does on every
/// full_recompile() and adopt(), where every post-install inbound change
/// ends).
class Stage2Memo {
 public:
  /// The stage-2 classifier of the local participant in \p slot.
  const policy::Classifier& get(const SdxCompiler& compiler, std::size_t slot);

  /// Builds every local participant's missing entry across \p pool. Until
  /// the next clear(), get() then only reads, so any number of threads may
  /// call it concurrently.
  void fill(const SdxCompiler& compiler, net::ThreadPool& pool);

  /// Drops every entry.
  void clear() { by_slot_.clear(); }

 private:
  std::vector<std::optional<policy::Classifier>> by_slot_;
};

class SdxCompiler {
 public:
  SdxCompiler(const std::vector<Participant>& participants,
              const PortMap& ports, const bgp::RouteServer& server,
              CompileOptions options = {});

  /// Runs the full pipeline. The allocator is reset first so a full
  /// (background) recompilation always produces a minimal binding set.
  CompiledSdx compile(VnhAllocator& vnh) const;

  /// The stage-2 (inbound-side) classifier of one local participant (what
  /// a Stage2Memo entry holds). Throws std::logic_error for a remote one.
  policy::Classifier stage2_for(const Participant& p) const;

  /// The reach set of one outbound clause: prefixes exported by the target
  /// to the owner, restricted to the clause's dst-prefix constraints
  /// (evaluated at announced-prefix granularity).
  std::vector<Ipv4Prefix> clause_reach(const Participant& owner,
                                       const OutboundClause& clause) const;

  /// The per-participant default next-hop vector for one prefix (the FEC
  /// pass-2 signature component): one RouteServer::for_each_best pass. The
  /// only default-vector routine — the full compile's FECs and the fast
  /// path's signatures both read it, so a prefix whose routes did not
  /// change keeps the defaults its compiled group was interned under.
  DefaultVector defaults_for(Ipv4Prefix prefix) const;

  const std::vector<Participant>& participants() const {
    return participants_;
  }
  const CompileOptions& options() const { return options_; }

  /// Attaches the measurement plane (nullptr detaches). Each compile()
  /// then opens a "compile" span with one child span per pipeline stage
  /// (reach/fec_vnh/synth/compose), observes the same stage
  /// timings into `sdx_compile_stage_seconds{stage=...}` histograms, and
  /// bumps the deterministic work counters (`sdx_compile_runs_total`,
  /// `_rules_total`, `_pair_compositions_total`). The bundle must outlive
  /// the compiler.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

 private:
  friend class IncrementalEngine;

  /// Work done by a composition: stage-1 rules pulled back through a
  /// stage-2 classifier, and the stage-2 rules those pull-backs visited
  /// (CompileStats::pair_compositions).
  struct Composition {
    std::size_t rules = 0;
    std::size_t visits = 0;
  };

  /// The attached tracer, or nullptr (stage spans are then inert).
  telemetry::SpanTracer* span_tracer() const;

  /// Stage 1 of both pipelines: the reach sets of every outbound clause of
  /// the participants in slots [\p first, \p last), slot-major in clause
  /// order (clause_index is local to its owner), computed across \p pool.
  std::vector<ClauseReach> clause_reaches(std::size_t first, std::size_t last,
                                          net::ThreadPool& pool) const;

  /// Expands a clause match into flow matches (cross product of the source
  /// prefix list; dst prefixes are consumed by grouping unless
  /// \p keep_dst_prefixes).
  std::vector<net::FlowMatch> clause_matches(const ClauseMatch& m,
                                             net::FlowMatch base,
                                             bool keep_dst_prefixes) const;

  /// Appends the stage-1 rules of one outbound clause of \p owner: for
  /// every ingress port and every destination constraint in \p dsts on
  /// field \p f (a group VMAC, an attribute-bit mask or, without VMAC
  /// grouping, a destination prefix), the clause's match expansions
  /// forwarding to the target's virtual port. Port-major order.
  void synthesize_clause(const Participant& owner, const OutboundClause& c,
                         net::Field f, std::span<const net::FieldMatch> dsts,
                         std::vector<policy::Rule>& out) const;

  /// Appends the default-forwarding rules for one group/VMAC (majority
  /// next-hop rule plus per-sender overrides).
  void synthesize_group_defaults(const DefaultVector& defaults,
                                 net::MacAddress vmac,
                                 std::vector<policy::Rule>& out) const;

  /// The one composition step (§4.3.1). A rule that forwards into a
  /// participant's virtual port is pulled back through
  /// \p stage2_of(target slot) and its run appended to \p out; any other
  /// rule (a drop, a physical egress) is appended unchanged. Defined in
  /// compiler.cpp, the only place that instantiates it.
  template <typename Stage2Of>
  void compose_rule(policy::Rule& rule, const Stage2Of& stage2_of,
                    std::vector<policy::Rule>& out, Composition& work) const;

  /// Serial targeted composition of \p stage1 through \p memo, deduplicated
  /// (exact-duplicate matches dropped, first wins). Composes each
  /// partition, the shared band and every fast-path batch.
  policy::Classifier compose_serial(std::vector<policy::Rule> stage1,
                                    Stage2Memo& memo, Composition& work) const;

  /// Targeted composition of the pairwise stage-1 list, fanned out across
  /// \p pool (composed runs land in per-rule slots and concatenate in
  /// stage-1 order). The ablation switches pick the stage-2 source.
  policy::Classifier compose(std::vector<policy::Rule> stage1,
                             CompileStats& stats,
                             net::ThreadPool& pool) const;

  /// Stages 2–6 of the pairwise pipeline over result.reaches.
  void compile_pairwise(VnhAllocator& vnh, net::ThreadPool& pool,
                        CompiledSdx& result) const;

  // -- partitioned pipeline --------------------------------------------

  /// Stages 2–6 of the partitioned pipeline: distributes \p reaches to
  /// their owners' partitions, compiles every partition, then the shared
  /// band.
  void compile_partitioned(std::vector<ClauseReach> reaches,
                           VnhAllocator& vnh, net::ThreadPool& pool,
                           CompiledSdx& result) const;

  /// The per-partition routine, for partitions whose reaches are set
  /// (listed in slot order): FECs, bindings continuing \p vnh's watermark,
  /// stage-1 synthesis, then composition through \p memo and dedup.
  /// compile_partitioned runs it over every partition;
  /// IncrementalEngine::recompile_partition over one.
  void compile_partitions(const std::vector<CompiledPartition*>& parts,
                          VnhAllocator& vnh, Stage2Memo& memo,
                          net::ThreadPool& pool, CompileStats& stats) const;

  /// Per-partition FECs: Minimum Disjoint Subsets over the owner's reach
  /// sets with a length-1 default vector — the advertiser of \p owner's
  /// own best route — since the tag only ever steers the owner's traffic.
  FecResult partition_fecs(const std::vector<ClauseReach>& reaches,
                           ParticipantId owner) const;

  /// Allocates one attribute-encoded binding per group of \p part: the
  /// clause-membership bitmap in the attribute field, the owner's default
  /// next-hop slot+1 in the next-hop field. Sequential — callers iterate
  /// partitions in slot order so VNH assignment is deterministic at any
  /// thread count.
  void bind_partition(CompiledPartition& part, VnhAllocator& vnh) const;

  /// Stage-1 rules of one partition: one masked rule per (clause, inport)
  /// for clauses that fit the attribute bitmap, exact-VMAC per-group rules
  /// for the overflow tail.
  std::vector<policy::Rule> partition_stage1(const Participant& owner,
                                             const CompiledPartition& part,
                                             const VmacLayout& layout) const;

  /// The partition-independent band: remote rewrites, one masked default
  /// rule per physical receiver (next-hop field), MAC learning, catch-all
  /// drop.
  std::vector<policy::Rule> shared_stage1(const VmacLayout& layout) const;

  /// Appends the remote-participant VMAC→router-MAC rewrite rules.
  void synthesize_remote_rewrites(std::vector<policy::Rule>& out) const;

  const std::vector<Participant>& participants_;
  const PortMap& ports_;
  const bgp::RouteServer& server_;
  CompileOptions options_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::unordered_map<ParticipantId, std::size_t> slot_of_;
  /// The participant slot of each route-server peer, by the peer's
  /// position in server_.peers() (kNoSlot: not a participant here).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_of_peer_;
};

}  // namespace sdx::core
