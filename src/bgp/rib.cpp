#include "bgp/rib.hpp"

namespace sdx::bgp {

AttrHandle AttrTable::make(RouteAttributes attrs) {
  AttrHandle h = 0;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
    slots_[h].attrs = std::move(attrs);
  } else {
    h = static_cast<AttrHandle>(slots_.size());
    slots_.push_back({std::move(attrs), 0});
  }
  slots_[h].refs = 1;
  return h;
}

FibIndex::Slot FibIndex::acquire(Ipv4Prefix prefix) {
  if (const Slot* held = trie_.find(prefix)) {
    retain(*held);
    return *held;
  }
  Slot s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
    prefixes_[s] = prefix;
  } else {
    s = static_cast<Slot>(refs_.size());
    refs_.push_back(0);
    prefixes_.push_back(prefix);
  }
  refs_[s] = 1;
  trie_.insert(prefix, s);
  return s;
}

void FibIndex::release(Slot s) {
  if (--refs_[s] != 0) return;
  trie_.erase(prefixes_[s]);
  free_.push_back(s);
}

Rib::~Rib() {
  // A moved-from Rib has no index and holds nothing.
  if (!index_) return;
  for (FibIndex::Slot slot = 0; slot < column_.size(); ++slot) {
    if (column_[slot] == kNoRoute) continue;
    index_->attrs().release(column_[slot]);
    index_->release(slot);
  }
}

bool Rib::add(Ipv4Prefix prefix, AttrHandle attrs) {
  const FibIndex::Slot slot = index_->acquire(prefix);
  const bool fresh = add_at(slot, attrs);
  index_->release(slot);
  return fresh;
}

bool Rib::add_at(FibIndex::Slot slot, AttrHandle attrs) {
  AttrTable& table = index_->attrs();
  table.retain(attrs);
  if (slot >= column_.size()) column_.resize(slot + 1, kNoRoute);
  AttrHandle& cell = column_[slot];
  if (cell != kNoRoute) {
    table.release(cell);
    cell = attrs;
    return false;
  }
  cell = attrs;
  index_->retain(slot);
  ++size_;
  return true;
}

bool Rib::withdraw(Ipv4Prefix prefix) {
  const FibIndex::Slot* slot = index_->find(prefix);
  return slot != nullptr && withdraw_at(*slot);
}

bool Rib::withdraw_at(FibIndex::Slot slot) {
  if (held(slot) == kNoRoute) return false;
  index_->attrs().release(column_[slot]);
  column_[slot] = kNoRoute;
  --size_;
  index_->release(slot);
  return true;
}

const RouteAttributes* Rib::find(Ipv4Prefix prefix) const {
  const FibIndex::Slot* slot = index_->find(prefix);
  if (slot == nullptr) return nullptr;
  const AttrHandle h = held(*slot);
  return h == kNoRoute ? nullptr : &index_->attrs()[h];
}

std::optional<Rib::Match> Rib::lookup(Ipv4Address addr) const {
  Hit hit;
  lookup(std::span(&addr, 1), std::span(&hit, 1));
  if (hit.attrs == kNoRoute) return std::nullopt;
  return Match{index_->prefix(hit.slot), index_->attrs()[hit.attrs]};
}

}  // namespace sdx::bgp
