#include "sdx/advertise_stage.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>

namespace sdx::core {

AdvertiseStage::AdvertiseStage(const std::vector<Participant>& participants,
                               const bgp::RouteServer& server,
                               const InstallStage& install, dp::Fabric& fabric,
                               telemetry::MetricRegistry& reg)
    : participants_(participants),
      server_(server),
      install_(install),
      fabric_(fabric),
      updates_(&reg.counter("sdx_frontend_updates_total",
                            "UPDATE messages distributed on the wire")),
      bytes_(&reg.counter("sdx_frontend_bytes_total",
                          "bytes moved by wire distribution")),
      drops_(&reg.counter("sdx_frontend_session_drops_total",
                          "wire sessions lost to hold-timer expiry")),
      reconnects_(&reg.counter("sdx_ingest_reconnects_total",
                               "BGP sessions automatically re-established")),
      seconds_(&reg.histogram("sdx_update_stage_seconds",
                              "wall time of one update-stage call (seconds)",
                              {}, {{"stage", "advertise"}})) {}

void AdvertiseStage::add_routers(const Participant& p) {
  auto& routers = router_index_.emplace_back();
  for (const auto& port : p.ports) {
    routers_.emplace_back(p.asn, port.id, port.router_mac, port.router_ip,
                          fib_);
    routers.push_back(routers_.size() - 1);
    fabric_.attach(routers_.back());
  }
  if (frontend_ && !routers.empty()) {
    frontend_->connect(p.id, routers_[routers.front()]);
  }
}

void AdvertiseStage::use_wire_distribution() {
  if (frontend_) return;
  frontend_ = std::make_unique<BgpFrontend>();
  for (const auto& p : participants_) {
    if (p.is_remote()) continue;
    // One session per participant, terminated at its primary router; the
    // router applies the updates to the shared participant RIB view.
    frontend_->connect(p.id, routers_[router_index_[p.id - 1].front()]);
  }
}

void AdvertiseStage::enable_auto_reconnect(
    BgpFrontend::ReconnectPolicy policy) {
  if (!frontend_) {
    throw std::logic_error(
        "enable_frontend_auto_reconnect requires use_wire_distribution()");
  }
  frontend_->enable_auto_reconnect(policy);
}

std::vector<ParticipantId> AdvertiseStage::advance_clock(double seconds) {
  if (!frontend_) return {};
  std::vector<ParticipantId> dropped = frontend_->advance_clock(seconds);
  drops_->inc(dropped.size());
  const auto reconnects = frontend_->reconnects();
  if (reconnects > synced_reconnects_) {
    reconnects_->inc(reconnects - synced_reconnects_);
    synced_reconnects_ = reconnects;
  }
  return dropped;
}

void AdvertiseStage::readvertise(const std::vector<Ipv4Prefix>& prefixes,
                                 const std::uint64_t* receivers) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t words = receiver_words();
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const std::uint64_t* mask =
        receivers == nullptr ? nullptr : receivers + i * words;
    if (mask != nullptr && std::none_of(mask, mask + words, std::identity{})) {
      continue;  // no receiver
    }
    readvertise(prefixes[i], mask);
  }
  seconds_->observe(telemetry::seconds_since(start));
}

void AdvertiseStage::readvertise(Ipv4Prefix prefix,
                                 const std::uint64_t* receivers) {
  const std::vector<bgp::Route>* ranked = server_.candidates(prefix);
  struct Group {
    const bgp::Route* best;  ///< nullptr: the group withdraws the prefix
    Ipv4Address next_hop;
    std::optional<bgp::AttrHandle> attrs;    ///< made on the first FIB write
    std::optional<bgp::UpdateMessage> msg;  ///< built on the first wire send
  };
  std::vector<Group> groups;
  // One trie walk resolves the prefix's FIB slot for every router; holding
  // it keeps a withdrawal from freeing the slot under the writes after it.
  // With no candidate left every receiver withdraws, so a prefix no FIB
  // holds gets no slot.
  std::optional<bgp::FibIndex::Slot> fib_slot;
  if (ranked != nullptr || fib_->find(prefix) != nullptr) {
    fib_slot = fib_->acquire(prefix);
  }
  // Route-server peers are registered in participant order, so a peer's
  // position is its participant slot.
  server_.for_each_best(ranked, [&](std::size_t slot,
                                    const bgp::Route* best) {
    const auto& p = participants_[slot];
    if (p.is_remote()) return;
    if (receivers != nullptr &&
        ((receivers[slot / 64] >> (slot % 64)) & 1) == 0) {
      return;
    }
    const Ipv4Address next_hop = best == nullptr
                                     ? Ipv4Address{}
                                     : install_.next_hop(slot, prefix, *best);
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
      return x.best == best && x.next_hop == next_hop;
    });
    if (g == groups.end()) {
      g = groups.insert(groups.end(), Group{best, next_hop, {}, {}});
    }
    const auto attributes = [&g] {
      bgp::RouteAttributes attrs = g->best->attrs;
      attrs.next_hop = g->next_hop;
      return attrs;
    };
    const auto& routers = router_index_[slot];
    std::size_t first = 0;
    if (frontend_ && frontend_->established(p.id)) {
      if (!g->msg) {
        g->msg.emplace();
        if (best == nullptr) {
          g->msg->withdrawn.push_back(prefix);
        } else {
          g->msg->attrs = attributes();
          g->msg->nlri.push_back(prefix);
        }
      }
      bytes_->inc(frontend_->distribute(p.id, *g->msg));
      updates_->inc();
      // Secondary routers of multi-port participants share the view.
      first = 1;
    }
    if (!fib_slot) return;
    for (std::size_t k = first; k < routers.size(); ++k) {
      auto& router = routers_[routers[k]];
      if (best == nullptr) {
        router.withdraw_at(*fib_slot);
        continue;
      }
      if (!g->attrs) g->attrs = fib_->attrs().make(attributes());
      router.announce_at(*fib_slot, *g->attrs);
    }
  });
  for (const auto& g : groups) {
    if (g.attrs) fib_->attrs().release(*g.attrs);
  }
  if (fib_slot) fib_->release(*fib_slot);
}

}  // namespace sdx::core
