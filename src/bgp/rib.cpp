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

Rib::~Rib() {
  // A moved-from Rib has no table and holds nothing.
  if (!table_) return;
  trie_.for_each([this](Ipv4Prefix, AttrHandle h) { table_->release(h); });
}

bool Rib::add(Ipv4Prefix prefix, AttrHandle attrs) {
  table_->retain(attrs);
  if (AttrHandle* held = trie_.find(prefix)) {
    table_->release(*held);
    *held = attrs;
    return false;
  }
  trie_.insert(prefix, attrs);
  return true;
}

bool Rib::withdraw(Ipv4Prefix prefix) {
  const AttrHandle* held = trie_.find(prefix);
  if (held == nullptr) return false;
  table_->release(*held);
  trie_.erase(prefix);
  return true;
}

const RouteAttributes* Rib::find(Ipv4Prefix prefix) const {
  const AttrHandle* held = trie_.find(prefix);
  return held == nullptr ? nullptr : &(*table_)[*held];
}

std::optional<Rib::Match> Rib::lookup(Ipv4Address addr) const {
  auto hit = trie_.lookup(addr);
  if (!hit) return std::nullopt;
  return Match{hit->first, (*table_)[*hit->second]};
}

}  // namespace sdx::bgp
