#include "sdx/binding_table.hpp"

namespace sdx::core {

void BindingTable::reset(const FecResult* base,
                         const std::vector<VnhBinding>& bindings) {
  entries_.clear();
  free_.clear();
  index_.clear();
  held_.clear();
  fast_ = 0;
  base_ = base;
  base_count_ = base == nullptr ? 0 : base->groups.size();
  entries_.reserve(base_count_);
  for (std::uint32_t id = 0; id < base_count_; ++id) {
    const PrefixGroup& group = base->groups[id];
    const bool fresh =
        index_.try_emplace(Signature{group.clauses, group.defaults}, id).second;
    entries_.push_back(Entry{bindings[id], 0, 0, fresh, {}});
  }
}

std::uint32_t BindingTable::base_entry(Ipv4Prefix prefix) const {
  if (base_ == nullptr) return kNone;
  auto it = base_->group_of.find(prefix);
  return it == base_->group_of.end() ? kNone : it->second;
}

std::uint32_t BindingTable::entry_of(Ipv4Prefix prefix) const {
  if (auto it = held_.find(prefix); it != held_.end()) return it->second;
  return base_entry(prefix);
}

std::optional<VnhBinding> BindingTable::binding_of(Ipv4Prefix prefix) const {
  const std::uint32_t id = entry_of(prefix);
  if (id == kNone) return std::nullopt;
  return entries_[id].binding;
}

std::uint32_t BindingTable::find(const Signature& sig) const {
  auto it = index_.find(sig);
  return it == index_.end() ? kNone : it->second;
}

std::uint32_t BindingTable::add(VnhBinding binding, std::uint64_t cookie) {
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[id] = Entry{binding, cookie, 0, false, {}};
  ++fast_;
  return id;
}

void BindingTable::index(std::uint32_t id, Signature sig) {
  Entry& e = entries_[id];
  e.indexed = index_.try_emplace(sig, id).second;
  e.signature = std::move(sig);
}

std::uint32_t BindingTable::assign(Ipv4Prefix prefix, std::uint32_t to) {
  const std::uint32_t from = entry_of(prefix);
  if (from == to) return kNone;
  if (to == base_entry(prefix)) {
    held_.erase(prefix);
  } else {
    held_[prefix] = to;
  }
  if (to != kNone && is_fast(to)) ++entries_[to].members;
  if (from != kNone && is_fast(from) && --entries_[from].members == 0) {
    return from;
  }
  return kNone;
}

void BindingTable::retire(std::uint32_t id) {
  if (entries_[id].indexed) index_.erase(entries_[id].signature);
  entries_[id] = Entry{};
  free_.push_back(id);
  --fast_;
}

void BindingTable::invalidate() {
  index_.clear();
  for (auto& e : entries_) e.indexed = false;
}

}  // namespace sdx::core
