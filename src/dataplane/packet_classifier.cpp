#include "dataplane/packet_classifier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "dataplane/flow_table.hpp"

namespace sdx::dp {

namespace {

using net::Field;
using net::kAllFields;
using net::kFieldCount;

/// Cross-lane rule order (see intern.hpp): priority desc, then insertion
/// sequence asc — identical to the linear reference scan's order.
bool better(const PacketClassifier::Entry& a,
            const PacketClassifier::Entry& b) {
  return entry_better(a, b);
}

/// Visitor for one best-first chain (a lane-1 MAC bucket or a tuple's hash
/// chain), shared by lookup() and lookup_batch(): stops at the first entry
/// that cannot beat \p best — every later one is worse still — or at the
/// first whose full match holds \p h, which then becomes \p best.
struct ChainScan {
  const PacketClassifier::Entry*& best;
  const net::PacketHeader& h;

  bool operator()(const PacketClassifier::Entry& e) const {
    if (best != nullptr && !better(e, *best)) return false;
    if (e.rule->match.matches(h)) {
      best = &e;
      return false;
    }
    return true;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t mix(std::uint64_t k, std::uint64_t v) {
  return (k ^ v) * kFnvPrime;
}

// kAllFields is declaration order, so net::field_index doubles as the
// column index of the batch scratch's SoA transpose.
constexpr std::size_t kDstMacIdx =
    static_cast<std::size_t>(net::field_index(Field::kDstMac));
constexpr std::size_t kDstIpIdx =
    static_cast<std::size_t>(net::field_index(Field::kDstIp));
constexpr std::size_t kSrcIpIdx =
    static_cast<std::size_t>(net::field_index(Field::kSrcIp));

}  // namespace

std::size_t PacketClassifier::MaskSigHash::operator()(
    const MaskSig& s) const noexcept {
  std::uint64_t k = kFnvOffset;
  for (std::uint64_t m : s) k = mix(k, m);
  return static_cast<std::size_t>(k);
}

namespace {

/// Hash of a packet's field values under a tuple's masks. A rule in the
/// tuple hashes its (already-masked) match values the same way, so a
/// matching packet always lands in the rule's bucket.
std::uint64_t packet_key(const PacketClassifier::MaskSig& masks,
                         const net::PacketHeader& h) {
  std::uint64_t k = kFnvOffset;
  for (int i = 0; i < kFieldCount; ++i) {
    k = mix(k, h.get(kAllFields[static_cast<std::size_t>(i)]) &
                   masks[static_cast<std::size_t>(i)]);
  }
  return k;
}

std::uint64_t rule_key(const net::FlowMatch& m) {
  std::uint64_t k = kFnvOffset;
  for (auto f : kAllFields) k = mix(k, m.field(f).value());
  return k;
}

void bucket_insert(std::vector<PacketClassifier::Entry>& b,
                   const PacketClassifier::Entry& e) {
  b.insert(std::upper_bound(b.begin(), b.end(), e, better), e);
}

void bucket_erase(std::vector<PacketClassifier::Entry>& b,
                  const FlowRule* rule) {
  auto it = std::find_if(b.begin(), b.end(),
                         [rule](const auto& e) { return e.rule == rule; });
  if (it != b.end()) b.erase(it);
}

/// Flat per-burst memo: open-addressed key table over append-only
/// key/value arrays. Rebuilding it is an O(n) memset of the slot table —
/// no node allocation, no bucket churn — which is what keeps the memo
/// cheaper than the lane/trie work it short-circuits (a node-based map
/// here costs more than mac_lane_best itself on distinct-heavy bursts).
template <typename V>
struct FlatMemo {
  std::vector<std::uint64_t> keys;
  std::vector<V> vals;
  std::vector<std::uint32_t> tab;  // open addressing: value = index + 1

  void begin(std::size_t n) {
    tab.assign(std::bit_ceil(std::max<std::size_t>(16, n * 2)), 0);
    keys.clear();
    vals.clear();
  }

  /// Returns the value slot for \p key plus whether it was just created
  /// (value-initialized). Capacity: at most one key per distinct header,
  /// table sized 2n — load factor stays under 1/2.
  std::pair<V*, bool> slot(std::uint64_t key) {
    const std::size_t mask = tab.size() - 1;
    std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    for (std::size_t s = static_cast<std::size_t>(h) & mask;;
         s = (s + 1) & mask) {
      const std::uint32_t v = tab[s];
      if (v == 0) {
        tab[s] = static_cast<std::uint32_t>(keys.size()) + 1;
        keys.push_back(key);
        vals.push_back(V{});
        return {&vals.back(), true};
      }
      if (keys[v - 1] == key) return {&vals[v - 1], false};
    }
  }
};

/// Per-thread burst workspace for lookup_batch. Everything is sized to the
/// burst on entry and keeps its capacity across bursts, so the steady
/// state allocates nothing. Hot per-field columns are SoA so the tuple key
/// loop is a plain multiply-xor stream the compiler can vectorize.
struct BatchScratch {
  // Distinct-header SoA: fields[f][u] = field f of the u-th distinct
  // header in the burst.
  std::array<std::vector<std::uint64_t>, kFieldCount> fields;
  std::vector<std::uint32_t> rep;        // distinct u -> first input index
  std::vector<std::uint32_t> unique_of;  // input index -> distinct u
  std::vector<std::uint32_t> dedup;      // open addressing: value = u + 1

  std::vector<const ClassifierEntry*> best;  // per distinct header
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> active, next_active, cand;

  // Per-burst memos: trie viability bitmaps per distinct IP, MAC probes
  // per distinct dst-MAC.
  std::vector<std::uint64_t> dst_bm, src_bm;     // per distinct header
  std::vector<std::uint8_t> dst_have, src_have;  // per distinct header
  FlatMemo<std::uint64_t> dst_memo, src_memo;
  FlatMemo<PacketClassifier::MacProbe> mac_memo;

  void begin(std::size_t n) {
    for (auto& col : fields) col.clear();
    rep.clear();
    unique_of.resize(n);
    dedup.assign(std::bit_ceil(std::max<std::size_t>(16, n * 2)), 0);
    dst_memo.begin(n);
    src_memo.begin(n);
    mac_memo.begin(n);
  }
};

}  // namespace

void PacketClassifier::reset(const VmacLaneSpec& spec) {
  spec_ = spec;
  clear();
}

void PacketClassifier::clear() {
  exact_mac_.clear();
  nexthop_lane_.clear();
  attr_lanes_.assign(spec_.enabled ? spec_.attr_bits : 0, {});
  tuples_.clear();
  tuple_index_.clear();
  tuple_order_.clear();
  dst_trie_.clear();
  src_trie_.clear();
}

PacketClassifier::ShapeInfo PacketClassifier::classify(
    const FlowRule& rule) const {
  const net::FlowMatch& m = rule.match;
  const net::FieldMatch& dm = m.field(Field::kDstMac);
  if (dm.is_exact()) return {Shape::kExactMac, dm.value(), 0};
  if (dm.is_wildcard() || m.constrained_fields() != 1) {
    return {Shape::kTuple, 0, 0};
  }
  // Masked dst-MAC-only rule: decode against the active layout. Both lane
  // shapes require the full top-octet guard and the layout's fixed value —
  // anything else (including guard-less masks) falls to tuple search.
  if (spec_.enabled && (dm.mask() & spec_.top_mask) == spec_.top_mask &&
      (dm.value() & spec_.top_mask) == spec_.top_value) {
    const std::uint64_t extra = dm.mask() & ~spec_.top_mask;
    if (spec_.nexthop_bits > 0 && extra == spec_.nexthop_field_mask()) {
      const std::uint64_t nh = (dm.value() >> spec_.nexthop_shift()) &
                               ((1ull << spec_.nexthop_bits) - 1);
      return {Shape::kNexthopLane, nh, 0};
    }
    if (std::has_single_bit(extra) && (dm.value() & extra) != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(extra));
      if (bit >= spec_.attr_shift() &&
          bit < spec_.attr_shift() + spec_.attr_bits) {
        return {Shape::kAttrLane, 0, bit - spec_.attr_shift()};
      }
    }
  }
  return {Shape::kTuple, 0, 0};
}

void PacketClassifier::insert(const FlowRule* rule, std::uint64_t seq) {
  const Entry e{rule, seq, rule->priority};
  const ShapeInfo s = classify(*rule);
  switch (s.shape) {
    case Shape::kExactMac:
      exact_mac_.insert(s.key, e);
      break;
    case Shape::kNexthopLane:
      nexthop_lane_.insert(s.key, e);
      break;
    case Shape::kAttrLane:
      bucket_insert(attr_lanes_[s.attr_bit], e);
      break;
    case Shape::kTuple:
      insert_tuple(e);
      break;
  }
}

void PacketClassifier::erase(const FlowRule* rule) {
  const ShapeInfo s = classify(*rule);
  switch (s.shape) {
    case Shape::kExactMac:
      exact_mac_.erase(s.key, rule);
      break;
    case Shape::kNexthopLane:
      nexthop_lane_.erase(s.key, rule);
      break;
    case Shape::kAttrLane:
      bucket_erase(attr_lanes_[s.attr_bit], rule);
      break;
    case Shape::kTuple:
      erase_tuple(rule);
      break;
  }
}

void PacketClassifier::insert_tuple(const Entry& e) {
  MaskSig sig;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kFieldCount); ++i) {
    sig[i] = e.rule->match.field(kAllFields[i]).mask();
  }
  auto [it, fresh] = tuple_index_.try_emplace(sig, tuples_.size());
  const std::size_t ti = it->second;
  if (fresh) {
    Tuple t;
    // Intern the mask vector: the index's key (node-stable in an
    // unordered_map) is the one copy; the tuple only references it.
    t.masks = &it->first;
    t.dst_cidr_len =
        e.rule->match.field(Field::kDstIp).cidr_prefix_length().value_or(-1);
    t.src_cidr_len =
        e.rule->match.field(Field::kSrcIp).cidr_prefix_length().value_or(-1);
    tuples_.push_back(std::move(t));
  }
  Tuple& t = tuples_[ti];
  t.entries.insert(rule_key(e.rule->match), e);
  ++t.size;
  if (t.size == 1 || e.priority > t.max_priority) t.max_priority = e.priority;
  if (ti < 64) {
    const std::uint64_t bit = 1ull << ti;
    if (t.dst_cidr_len > 0) {
      const net::Ipv4Prefix p(
          net::Ipv4Address(static_cast<std::uint32_t>(
              e.rule->match.field(Field::kDstIp).value())),
          t.dst_cidr_len);
      if (auto* v = dst_trie_.find(p)) *v |= bit;
      else dst_trie_.insert(p, bit);
    }
    if (t.src_cidr_len > 0) {
      const net::Ipv4Prefix p(
          net::Ipv4Address(static_cast<std::uint32_t>(
              e.rule->match.field(Field::kSrcIp).value())),
          t.src_cidr_len);
      if (auto* v = src_trie_.find(p)) *v |= bit;
      else src_trie_.insert(p, bit);
    }
  }
  rebuild_tuple_order();
}

void PacketClassifier::erase_tuple(const FlowRule* rule) {
  MaskSig sig;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kFieldCount); ++i) {
    sig[i] = rule->match.field(kAllFields[i]).mask();
  }
  auto ti_it = tuple_index_.find(sig);
  if (ti_it == tuple_index_.end()) return;
  Tuple& t = tuples_[ti_it->second];
  if (!t.entries.erase(rule_key(rule->match), rule)) return;
  --t.size;
  if (t.size == 0) {
    t.max_priority = 0;
  } else if (rule->priority == t.max_priority) {
    std::uint32_t mx = 0;
    t.entries.for_each_head(
        [&mx](const Entry& e) { mx = std::max(mx, e.priority); });
    t.max_priority = mx;
  }
  // Precheck trie bits are left stale on purpose: a stale bit only admits
  // an extra (failed) hash probe; it can never produce a wrong match.
  rebuild_tuple_order();
}

void PacketClassifier::rebuild_tuple_order() {
  tuple_order_.clear();
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i].size > 0) tuple_order_.push_back(i);
  }
  std::sort(tuple_order_.begin(), tuple_order_.end(),
            [this](std::size_t a, std::size_t b) {
              return tuples_[a].max_priority > tuples_[b].max_priority;
            });
}

PacketClassifier::MacProbe PacketClassifier::probe_mac(
    std::uint64_t mac) const {
  MacProbe p;
  p.bucket = exact_mac_.chain(mac);

  // Lane 2: VMAC field lanes, probed only for layout-tagged packets.
  const Entry*& best = p.lane2;
  if (spec_.enabled && (mac & spec_.top_mask) == spec_.top_value) {
    if (spec_.nexthop_bits > 0 && !nexthop_lane_.empty()) {
      const std::uint64_t nh = (mac >> spec_.nexthop_shift()) &
                               ((1ull << spec_.nexthop_bits) - 1);
      if (const Entry* e = nexthop_lane_.best(nh);
          e != nullptr && (best == nullptr || better(*e, *best))) {
        best = e;
      }
    }
    if (!attr_lanes_.empty()) {
      std::uint64_t attrs =
          (mac >> spec_.attr_shift()) &
          (spec_.attr_bits >= 64 ? ~0ull : (1ull << spec_.attr_bits) - 1);
      while (attrs != 0) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(attrs));
        attrs &= attrs - 1;
        const Bucket& b = attr_lanes_[j];
        if (!b.empty() && (best == nullptr || better(b.front(), *best))) {
          best = &b.front();
        }
      }
    }
  }
  return p;
}

const PacketClassifier::Entry* PacketClassifier::mac_lane_best(
    const MacProbe& p, const net::PacketHeader& h) const {
  // Lane 1: the MAC's bucket, best-first. Its entries differ in the
  // fields beyond the dst-MAC, so the first whose full match holds wins —
  // unless lane 2's winner already beats it.
  const Entry* best = p.lane2;
  exact_mac_.visit_chain(p.bucket, ChainScan{best, h});
  return best;
}

const FlowRule* PacketClassifier::lookup(const net::PacketHeader& h) const {
  const Entry* best = mac_lane_best(probe_mac(h.get(Field::kDstMac)), h);

  // Lane 3: tuple-space search, highest-max-priority tuple first; stop as
  // soon as no remaining tuple can beat the current winner (strict >, so
  // priority ties still get probed and sequence decides).
  std::uint64_t dst_viable = 0, src_viable = 0;
  bool dst_done = false, src_done = false;
  for (const std::size_t ti : tuple_order_) {
    const Tuple& t = tuples_[ti];
    if (best != nullptr && best->priority > t.max_priority) break;
    if (ti < 64) {
      const std::uint64_t bit = 1ull << ti;
      if (t.dst_cidr_len > 0) {
        if (!dst_done) {
          dst_trie_.for_each_covering(
              h.dst_ip(), [&](std::uint64_t bm) { dst_viable |= bm; });
          dst_done = true;
        }
        if ((dst_viable & bit) == 0) continue;
      }
      if (t.src_cidr_len > 0) {
        if (!src_done) {
          src_trie_.for_each_covering(
              h.src_ip(), [&](std::uint64_t bm) { src_viable |= bm; });
          src_done = true;
        }
        if ((src_viable & bit) == 0) continue;
      }
    }
    t.entries.visit(packet_key(*t.masks, h), ChainScan{best, h});
  }
  return best != nullptr ? best->rule : nullptr;
}

void PacketClassifier::lookup_batch(std::span<const net::PacketHeader> pkts,
                                    std::span<const FlowRule*> out) const {
  assert(out.size() >= pkts.size());
  const std::size_t n = pkts.size();
  if (n == 0) return;
  thread_local BatchScratch sc;
  sc.begin(n);

  // Pass 0 — dedup + SoA transpose. Bursts from real traffic repeat
  // headers (elephant flows); each distinct header is classified once and
  // the verdict scattered to every duplicate.
  for (std::size_t i = 0; i < n; ++i) {
    const net::PacketHeader& h = pkts[i];
    std::uint64_t k = kFnvOffset;
    for (auto f : kAllFields) k = mix(k, h.get(f));
    const std::size_t mask = sc.dedup.size() - 1;
    std::uint32_t u = 0;
    for (std::size_t s = static_cast<std::size_t>(k ^ (k >> 32)) & mask;;
         s = (s + 1) & mask) {
      const std::uint32_t v = sc.dedup[s];
      if (v == 0) {
        u = static_cast<std::uint32_t>(sc.rep.size());
        sc.dedup[s] = u + 1;
        sc.rep.push_back(static_cast<std::uint32_t>(i));
        for (std::size_t f = 0; f < static_cast<std::size_t>(kFieldCount);
             ++f) {
          sc.fields[f].push_back(h.get(kAllFields[f]));
        }
        break;
      }
      bool same = true;
      for (std::size_t f = 0;
           same && f < static_cast<std::size_t>(kFieldCount); ++f) {
        same = sc.fields[f][v - 1] == h.get(kAllFields[f]);
      }
      if (same) {
        u = v - 1;
        break;
      }
    }
    sc.unique_of[i] = u;
  }
  const std::size_t uniq = sc.rep.size();
  sc.best.assign(uniq, nullptr);

  // Pass 1 — lanes 1+2. The MAC probe runs once per distinct dst-MAC in
  // the burst (many distinct flows share a VMAC, so this memo hits far
  // more often than the full-header dedup); the bucket walk runs once per
  // distinct header.
  const std::vector<std::uint64_t>& dmac = sc.fields[kDstMacIdx];
  for (std::size_t u = 0; u < uniq; ++u) {
    auto [probe, fresh] = sc.mac_memo.slot(dmac[u]);
    if (fresh) *probe = probe_mac(dmac[u]);
    sc.best[u] = mac_lane_best(*probe, pkts[sc.rep[u]]);
  }

  // Pass 2 — tuple-space search, lane-major: each tuple is visited once
  // for the whole burst. A packet retires from `active` permanently once
  // its winner beats every remaining tuple (tuple_order_ is max-priority
  // descending, so the single-lookup early exit maps to per-packet
  // retirement). Trie covering-walks run once per distinct IP per burst.
  if (!tuple_order_.empty()) {
    sc.active.resize(uniq);
    for (std::size_t u = 0; u < uniq; ++u) {
      sc.active[u] = static_cast<std::uint32_t>(u);
    }
    sc.dst_have.assign(uniq, 0);
    sc.src_have.assign(uniq, 0);
    const auto dst_viable = [this](std::uint32_t u) {
      if (!sc.dst_have[u]) {
        auto [val, fresh] = sc.dst_memo.slot(sc.fields[kDstIpIdx][u]);
        if (fresh) {
          dst_trie_.for_each_covering(
              net::Ipv4Address(
                  static_cast<std::uint32_t>(sc.fields[kDstIpIdx][u])),
              [val](std::uint64_t bm) { *val |= bm; });
        }
        sc.dst_bm.resize(sc.dst_have.size());
        sc.dst_bm[u] = *val;
        sc.dst_have[u] = 1;
      }
      return sc.dst_bm[u];
    };
    const auto src_viable = [this](std::uint32_t u) {
      if (!sc.src_have[u]) {
        auto [val, fresh] = sc.src_memo.slot(sc.fields[kSrcIpIdx][u]);
        if (fresh) {
          src_trie_.for_each_covering(
              net::Ipv4Address(
                  static_cast<std::uint32_t>(sc.fields[kSrcIpIdx][u])),
              [val](std::uint64_t bm) { *val |= bm; });
        }
        sc.src_bm.resize(sc.src_have.size());
        sc.src_bm[u] = *val;
        sc.src_have[u] = 1;
      }
      return sc.src_bm[u];
    };

    for (const std::size_t ti : tuple_order_) {
      const Tuple& t = tuples_[ti];
      sc.next_active.clear();
      for (const std::uint32_t u : sc.active) {
        const Entry* b = sc.best[u];
        if (b == nullptr || !(b->priority > t.max_priority)) {
          sc.next_active.push_back(u);
        }
      }
      sc.active.swap(sc.next_active);
      if (sc.active.empty()) break;

      const std::vector<std::uint32_t>* cand = &sc.active;
      if (ti < 64 && (t.dst_cidr_len > 0 || t.src_cidr_len > 0)) {
        sc.cand.clear();
        const std::uint64_t bit = 1ull << ti;
        for (const std::uint32_t u : sc.active) {
          if (t.dst_cidr_len > 0 && (dst_viable(u) & bit) == 0) continue;
          if (t.src_cidr_len > 0 && (src_viable(u) & bit) == 0) continue;
          sc.cand.push_back(u);
        }
        cand = &sc.cand;
      }
      if (cand->empty()) continue;

      // SoA key pass: one multiply-xor stream per field over the whole
      // candidate set — plain code the autovectorizer handles.
      const std::size_t m = cand->size();
      const std::uint32_t* cs = cand->data();
      sc.keys.assign(m, kFnvOffset);
      std::uint64_t* keys = sc.keys.data();
      for (std::size_t f = 0; f < static_cast<std::size_t>(kFieldCount);
           ++f) {
        const std::uint64_t fm = (*t.masks)[f];
        if (fm == 0) {
          for (std::size_t j = 0; j < m; ++j) keys[j] *= kFnvPrime;
          continue;
        }
        const std::uint64_t* col = sc.fields[f].data();
        for (std::size_t j = 0; j < m; ++j) {
          keys[j] = (keys[j] ^ (col[cs[j]] & fm)) * kFnvPrime;
        }
      }

      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t u = cs[j];
        t.entries.visit(keys[j], ChainScan{sc.best[u], pkts[sc.rep[u]]});
      }
    }
  }

  // Scatter distinct-header verdicts back to burst order.
  for (std::size_t i = 0; i < n; ++i) {
    const Entry* e = sc.best[sc.unique_of[i]];
    out[i] = e != nullptr ? e->rule : nullptr;
  }
}

PacketClassifier::Stats PacketClassifier::stats() const {
  Stats s;
  s.exact_mac_rules = exact_mac_.entries();
  s.mac_buckets = exact_mac_.keys();
  s.max_mac_bucket = exact_mac_.longest_chain();
  s.nexthop_lane_rules = nexthop_lane_.entries();
  for (const Bucket& b : attr_lanes_) s.attr_lane_rules += b.size();
  for (const auto& t : tuples_) {
    s.tuple_rules += t.size;
    s.tuples += t.size > 0 ? 1 : 0;
  }
  return s;
}

}  // namespace sdx::dp
