#include "dataplane/flow_table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace sdx::dp {

std::string FlowRule::to_string() const {
  std::ostringstream os;
  os << "prio=" << priority << " " << match.to_string() << " -> ";
  if (drops()) {
    os << "drop";
  } else {
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (i > 0) os << " | ";
      os << "[" << actions[i].to_string() << "]";
    }
  }
  os << " (cookie=" << cookie << ", n=" << packet_count.value() << ")";
  return os.str();
}

const FlowRule* reference_lookup(std::span<const FlowRule* const> ordered,
                                 const PacketHeader& h) {
  for (const FlowRule* r : ordered) {
    if (r->match.matches(h)) return r;
  }
  return nullptr;
}

void FlowTable::install(FlowRule rule) {
  const std::uint64_t seq = next_sequence_++;
  std::size_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    slots_[idx].rule = std::move(rule);
    slots_[idx].seq = seq;
    slots_[idx].alive = true;
  } else {
    idx = slots_.size();
    slots_.push_back(Slot{std::move(rule), seq, true});
  }
  cookie_index_[slots_[idx].rule.cookie].push_back(idx);
  classifier_.insert(&slots_[idx].rule, seq);
  ++alive_;
}

void FlowTable::install_classifier(const Classifier& c,
                                   std::uint32_t priority_base,
                                   std::uint64_t cookie) {
  const std::size_t n = c.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowRule r;
    r.priority = priority_base + static_cast<std::uint32_t>(n - 1 - i);
    r.match = c.rules()[i].match;
    r.actions = c.rules()[i].actions;
    r.cookie = cookie;
    install(std::move(r));
  }
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
  auto it = cookie_index_.find(cookie);
  if (it == cookie_index_.end()) return 0;
  std::size_t removed = 0;
  for (const std::size_t idx : it->second) {
    Slot& s = slots_[idx];
    // A recycled slot may linger in an old cookie's index; the alive +
    // cookie check filters those out.
    if (!s.alive || s.rule.cookie != cookie) continue;
    classifier_.erase(&s.rule);
    s.alive = false;
    free_.push_back(idx);
    ++removed;
    --alive_;
  }
  cookie_index_.erase(it);
  return removed;
}

void FlowTable::clear() {
  slots_.clear();
  free_.clear();
  cookie_index_.clear();
  alive_ = 0;
  classifier_.clear();
}

const FlowRule* FlowTable::lookup(const PacketHeader& h) const {
  return classifier_.lookup(h);
}

std::vector<PacketHeader> FlowTable::process(const PacketHeader& h) const {
  const FlowRule* r = lookup(h);
  if (r == nullptr) {
    missed_.fetch_add(1, std::memory_order_relaxed);
    if (miss_counter_ != nullptr) miss_counter_->inc();
    return {};
  }
  matched_.fetch_add(1, std::memory_order_relaxed);
  if (match_counter_ != nullptr) match_counter_->inc();
  r->packet_count.inc();
  std::vector<PacketHeader> out;
  out.reserve(r->actions.size());
  r->apply(h, out);
  return out;
}

std::vector<PacketHeader> FlowTable::probe(const PacketHeader& h) const {
  std::vector<PacketHeader> out;
  if (const FlowRule* r = lookup(h)) r->apply(h, out);
  return out;
}

void FlowTable::lookup_batch(std::span<const PacketHeader> pkts,
                             std::span<const FlowRule*> out) const {
  classifier_.lookup_batch(pkts, out);
  if (batch_desync_) {
    // Oracle test seam: the batch path "reads" a stale empty snapshot.
    for (std::size_t i = 0; i < pkts.size(); ++i) out[i] = nullptr;
  }
}

FlowTable::BatchResult FlowTable::process_batch(
    std::span<const PacketHeader> pkts) const {
  const std::size_t n = pkts.size();
  BatchResult res;
  res.offsets.reserve(n + 1);
  res.offsets.push_back(0);
  thread_local std::vector<const FlowRule*> hits;
  hits.assign(n, nullptr);
  lookup_batch(pkts, hits);
  std::uint64_t matched = 0;
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowRule* r = hits[i];
    if (r == nullptr) {
      ++missed;
    } else {
      ++matched;
      r->packet_count.inc();
      r->apply(pkts[i], res.frames);
    }
    res.offsets.push_back(static_cast<std::uint32_t>(res.frames.size()));
  }
  if (matched > 0) {
    matched_.fetch_add(matched, std::memory_order_relaxed);
    if (match_counter_ != nullptr) match_counter_->inc(matched);
  }
  if (missed > 0) {
    missed_.fetch_add(missed, std::memory_order_relaxed);
    if (miss_counter_ != nullptr) miss_counter_->inc(missed);
  }
  return res;
}

std::vector<const FlowRule*> FlowTable::rules() const {
  struct Ref {
    const FlowRule* rule;
    std::uint64_t seq;
  };
  std::vector<Ref> refs;
  refs.reserve(alive_);
  for (const Slot& s : slots_) {
    if (s.alive) refs.push_back({&s.rule, s.seq});
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.rule->priority > b.rule->priority ||
           (a.rule->priority == b.rule->priority && a.seq < b.seq);
  });
  std::vector<const FlowRule*> out;
  out.reserve(refs.size());
  for (const Ref& r : refs) out.push_back(r.rule);
  return out;
}

std::optional<std::size_t> FlowTable::index_of(const FlowRule* rule) const {
  const auto ordered = rules();
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (ordered[i] == rule) return i;
  }
  return std::nullopt;
}

void FlowTable::set_vmac_lanes(const VmacLaneSpec& spec) {
  classifier_.reset(spec);
  for (const Slot& s : slots_) {
    if (s.alive) classifier_.insert(&s.rule, s.seq);
  }
}

std::string FlowTable::to_string() const {
  std::ostringstream os;
  for (const FlowRule* r : rules()) os << r->to_string() << "\n";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const FlowTable& t) {
  return os << t.to_string();
}

}  // namespace sdx::dp
