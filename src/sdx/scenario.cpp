#include "sdx/scenario.hpp"

#include <charconv>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "bgp/aspath_regex.hpp"
#include "sdx/chaining.hpp"
#include "sdx/explain.hpp"
#include "sdx/monitor.hpp"
#include "sdx/multi_switch.hpp"
#include "sdx/verifier.hpp"

namespace sdx::core {

// Command table
// -------------
//   participant <name> <asn> [ports <n>]
//   remote <name> <asn>
//   announce <name> <prefix> [path <asn>...]
//   withdraw <name> <prefix>
//   outbound <name> match <field>=<v>... -> <target>
//   inbound <name> match <field>=<v>... [set <field>=<v>...] [port <idx>]
//   chain <owner> via <mb>... match <field>=<v>...
//   rpki add <prefix> as <asn> [maxlen <n>]
//   rpki mode off|remote|strict
//   install                      full compile + deploy
//   recompile                    background (optimal) recompilation
//   topology switches <n>        declare a multi-switch fabric (§4.1)
//   topology place <name> <port-idx> <switch>
//   topology link <swA> <swB>
//   install-multi                translate rules onto the topology; later
//                                send/expect run over the multi fabric
//   send <name> <field>=<v>... [from-port <idx>]
//   traffic <name> count <n> flows <k> [seed <s>] [burst <b>]
//       [from-port <idx>] <field>=<v>...
//                                generated flow mix (skewed toward the
//                                first flows) replayed in bursts through
//                                the batched data-plane path; reports
//                                per-participant delivery counts and the
//                                monitor's top heavy hitter
//   expect drop | expect port <name> <idx> | expect dstip <addr>
//   audit                        static rule-table audit
//   verify                       full safety check (loops, isolation,
//                                blackholes + local audit); prints the
//                                counterexample packet trace on failure
//   save <dir>                   attach a journal at <dir> and checkpoint
//   recover <dir>                rebuild a fresh runtime from a journal
//   journal                      journal status (LSN, bytes, checkpoint)
//   show stats|groups|log
//   show rules [n]
// Matchable/settable fields: srcip, dstip (addresses or prefixes),
// srcport, dstport, proto, ethtype, srcmac, dstmac.

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

std::optional<std::uint64_t> parse_number(const std::string& s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

struct ScenarioError {
  std::string what;
};

[[noreturn]] void fail(const std::string& what) { throw ScenarioError{what}; }

std::optional<net::Field> field_by_name(const std::string& name) {
  for (auto f : net::kAllFields) {
    if (net::field_name(f) == name) return f;
  }
  return std::nullopt;
}

/// Parses `field=value` into a clause match (prefix-aware for IP fields).
void apply_match_token(ClauseMatch& m, const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) fail("expected field=value, got '" + tok + "'");
  const std::string name = tok.substr(0, eq);
  const std::string value = tok.substr(eq + 1);
  auto field = field_by_name(name);
  if (!field) fail("unknown field '" + name + "'");
  if (net::is_ip_field(*field)) {
    auto prefix = net::Ipv4Prefix::try_parse(value);
    if (!prefix) {
      auto addr = net::Ipv4Address::try_parse(value);
      if (!addr) fail("bad address '" + value + "'");
      prefix = net::Ipv4Prefix::host(*addr);
    }
    if (*field == net::Field::kSrcIp) {
      m.src(*prefix);
    } else {
      m.dst(*prefix);
    }
    return;
  }
  auto number = parse_number(value);
  if (!number) fail("bad value '" + value + "'");
  m.field(*field, *number);
}

std::pair<net::Field, std::uint64_t> parse_set_token(const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) fail("expected field=value, got '" + tok + "'");
  auto field = field_by_name(tok.substr(0, eq));
  if (!field) fail("unknown field '" + tok.substr(0, eq) + "'");
  const std::string value = tok.substr(eq + 1);
  if (net::is_ip_field(*field)) {
    auto addr = net::Ipv4Address::try_parse(value);
    if (!addr) fail("bad address '" + value + "'");
    return {*field, addr->value()};
  }
  if (*field == net::Field::kSrcMac || *field == net::Field::kDstMac) {
    auto mac = net::MacAddress::try_parse(value);
    if (!mac) fail("bad MAC '" + value + "'");
    return {*field, mac->bits()};
  }
  auto number = parse_number(value);
  if (!number) fail("bad value '" + value + "'");
  return {*field, *number};
}

}  // namespace

struct ScenarioInterpreter::Impl {
  SdxRuntime runtime;
  bgp::RoaTable pending_roas;
  std::vector<dp::Fabric::Delivery> last_send;
  bool sent_anything = false;
  std::optional<FabricTopology> topology;
  std::unique_ptr<MultiSwitchFabric> multi_fabric;
  net::PortId next_trunk = 100000;

  ParticipantId lookup(const std::string& name) {
    Participant* p = runtime.find(name);
    if (p == nullptr) fail("unknown participant '" + name + "'");
    return p->id;
  }

  std::string handle(const std::vector<std::string>& t);
};

std::string ScenarioInterpreter::Impl::handle(
    const std::vector<std::string>& t) {
  const std::string& cmd = t[0];

  if (cmd == "participant" || cmd == "remote") {
    if (t.size() < 3) fail("usage: " + cmd + " <name> <asn> [ports <n>]");
    auto asn = parse_number(t[2]);
    if (!asn) fail("bad ASN '" + t[2] + "'");
    if (runtime.find(t[1]) != nullptr) {
      fail("participant '" + t[1] + "' already exists");
    }
    if (cmd == "remote") {
      runtime.add_remote_participant(t[1], static_cast<net::Asn>(*asn));
      return "remote participant " + t[1];
    }
    std::size_t ports = 1;
    if (t.size() == 5 && t[3] == "ports") {
      auto n = parse_number(t[4]);
      if (!n || *n == 0) fail("bad port count");
      ports = *n;
    } else if (t.size() != 3) {
      fail("usage: participant <name> <asn> [ports <n>]");
    }
    const auto id = runtime.add_participant(t[1], static_cast<net::Asn>(*asn),
                                            ports);
    std::ostringstream os;
    os << "participant " << t[1] << " (AS" << *asn << ") ports";
    for (auto pid : runtime.participant(id).port_ids()) os << " " << pid;
    return os.str();
  }

  if (cmd == "announce" || cmd == "withdraw") {
    if (t.size() < 3) fail("usage: " + cmd + " <name> <prefix> ...");
    const auto id = lookup(t[1]);
    auto prefix = net::Ipv4Prefix::try_parse(t[2]);
    if (!prefix) fail("bad prefix '" + t[2] + "'");
    if (cmd == "withdraw") {
      runtime.withdraw(id, *prefix);
      return "withdrawn " + prefix->to_string();
    }
    std::optional<net::AsPath> path;
    if (t.size() > 3) {
      if (t[3] != "path") fail("expected 'path', got '" + t[3] + "'");
      std::vector<net::Asn> asns;
      for (std::size_t i = 4; i < t.size(); ++i) {
        auto a = parse_number(t[i]);
        if (!a) fail("bad ASN '" + t[i] + "'");
        asns.push_back(static_cast<net::Asn>(*a));
      }
      if (asns.empty()) fail("empty AS path");
      path = net::AsPath(std::move(asns));
    }
    runtime.announce(id, *prefix, path);
    return "announced " + prefix->to_string();
  }

  if (cmd == "outbound") {
    // outbound <name> match f=v... -> <target>
    if (t.size() < 5 || t[2] != "match") {
      fail("usage: outbound <name> match <f>=<v>... -> <target>");
    }
    const auto id = lookup(t[1]);
    ClauseMatch match;
    std::size_t i = 3;
    for (; i < t.size() && t[i] != "->"; ++i) apply_match_token(match, t[i]);
    if (i + 1 != t.size() - 0 && (i >= t.size() || t[i] != "->")) {
      fail("missing '-> <target>'");
    }
    if (i + 1 >= t.size()) fail("missing target after '->'");
    const auto target = lookup(t[i + 1]);
    auto clauses = runtime.participant(id).outbound;
    clauses.push_back(OutboundClause{std::move(match), target});
    runtime.set_outbound(id, std::move(clauses));
    return "outbound clause " + std::to_string(
               runtime.participant(id).outbound.size()) + " installed";
  }

  if (cmd == "inbound") {
    // inbound <name> match f=v... [set f=v...] [port <idx>]
    if (t.size() < 4 || t[2] != "match") {
      fail("usage: inbound <name> match <f>=<v>... [set <f>=<v>...] "
           "[port <idx>]");
    }
    const auto id = lookup(t[1]);
    InboundClause clause;
    std::size_t i = 3;
    for (; i < t.size() && t[i] != "set" && t[i] != "port"; ++i) {
      apply_match_token(clause.match, t[i]);
    }
    if (i < t.size() && t[i] == "set") {
      for (++i; i < t.size() && t[i] != "port"; ++i) {
        clause.rewrites.push_back(parse_set_token(t[i]));
      }
    }
    if (i < t.size() && t[i] == "port") {
      if (i + 1 >= t.size()) fail("missing port index");
      auto idx = parse_number(t[i + 1]);
      if (!idx) fail("bad port index");
      clause.to_port = *idx;
      i += 2;
    }
    if (i != t.size()) fail("trailing tokens after inbound clause");
    auto clauses = runtime.participant(id).inbound;
    clauses.push_back(std::move(clause));
    runtime.set_inbound(id, std::move(clauses));
    return "inbound clause " +
           std::to_string(runtime.participant(id).inbound.size()) +
           " installed";
  }

  if (cmd == "chain") {
    // chain <owner> via <mb>... match f=v...
    if (t.size() < 6 || t[2] != "via") {
      fail("usage: chain <owner> via <mb>... match <f>=<v>...");
    }
    ServiceChain chain;
    chain.owner = lookup(t[1]);
    std::size_t i = 3;
    for (; i < t.size() && t[i] != "match"; ++i) {
      chain.middleboxes.push_back(lookup(t[i]));
    }
    if (i >= t.size()) fail("missing 'match' in chain");
    for (++i; i < t.size(); ++i) apply_match_token(chain.match, t[i]);
    install_chain(runtime, chain);
    return "chain installed (" + std::to_string(chain.middleboxes.size()) +
           " middleboxes)";
  }

  if (cmd == "rpki") {
    if (t.size() >= 2 && t[1] == "mode") {
      if (t.size() != 3) fail("usage: rpki mode off|remote|strict");
      using Mode = SdxRuntime::RpkiMode;
      Mode mode;
      if (t[2] == "off") {
        mode = Mode::kOff;
      } else if (t[2] == "remote") {
        mode = Mode::kRemoteOnly;
      } else if (t[2] == "strict") {
        mode = Mode::kStrict;
      } else {
        fail("unknown rpki mode '" + t[2] + "'");
      }
      runtime.enable_rpki(std::move(pending_roas), mode);
      pending_roas = {};
      return "rpki mode " + t[2];
    }
    if (t.size() >= 5 && t[1] == "add" && t[3] == "as") {
      auto prefix = net::Ipv4Prefix::try_parse(t[2]);
      auto asn = parse_number(t[4]);
      if (!prefix || !asn) fail("usage: rpki add <prefix> as <asn> [maxlen n]");
      int maxlen = -1;
      if (t.size() == 7 && t[5] == "maxlen") {
        auto n = parse_number(t[6]);
        if (!n) fail("bad maxlen");
        maxlen = static_cast<int>(*n);
      } else if (t.size() != 5) {
        fail("usage: rpki add <prefix> as <asn> [maxlen n]");
      }
      pending_roas.add(*prefix, static_cast<net::Asn>(*asn), maxlen);
      return "roa " + prefix->to_string() + " AS" + t[4];
    }
    fail("usage: rpki add ... | rpki mode ...");
  }

  if (cmd == "topology") {
    if (t.size() == 3 && t[1] == "switches") {
      auto n = parse_number(t[2]);
      if (!n || *n == 0) fail("bad switch count");
      topology.emplace(*n);
      multi_fabric.reset();
      return "topology with " + t[2] + " switches";
    }
    if (!topology) fail("declare 'topology switches <n>' first");
    if (t.size() == 5 && t[1] == "place") {
      const auto id = lookup(t[2]);
      auto idx = parse_number(t[3]);
      auto sw = parse_number(t[4]);
      if (!idx || !sw) fail("usage: topology place <name> <port-idx> <sw>");
      const auto& ports = runtime.participant(id).ports;
      if (*idx >= ports.size()) fail("participant has no port " + t[3]);
      topology->place_port(ports[*idx].id, static_cast<SwitchId>(*sw));
      return "placed " + t[2] + " port " + t[3] + " on switch " + t[4];
    }
    if (t.size() == 4 && t[1] == "link") {
      auto a = parse_number(t[2]);
      auto b = parse_number(t[3]);
      if (!a || !b) fail("usage: topology link <swA> <swB>");
      const net::PortId pa = next_trunk++;
      const net::PortId pb = next_trunk++;
      topology->add_link(static_cast<SwitchId>(*a), pa,
                         static_cast<SwitchId>(*b), pb);
      return "linked switch " + t[2] + " and " + t[3];
    }
    fail("usage: topology switches <n> | place <name> <idx> <sw> | "
         "link <a> <b>");
  }

  if (cmd == "install-multi") {
    if (!topology) fail("declare a topology first");
    if (!runtime.installed()) fail("install before install-multi");
    auto programs = compile_multi_switch(
        runtime.compiled(), runtime.participants(), *topology);
    std::size_t total_rules = 0;
    for (const auto& p : programs) total_rules += p.rules.size();
    multi_fabric = std::make_unique<MultiSwitchFabric>(*topology, programs);
    std::ostringstream os;
    os << "multi-switch deployment: " << programs.size() << " switches, "
       << total_rules << " rules total";
    return os.str();
  }

  if (cmd == "install") {
    const auto& compiled = runtime.install();
    multi_fabric.reset();  // stale after a recompile
    std::ostringstream os;
    os << "installed: " << compiled.stats.prefix_groups << " groups, "
       << compiled.stats.final_rules << " rules, "
       << compiled.stats.total_seconds * 1e3 << " ms";
    return os.str();
  }

  if (cmd == "recompile") {
    const auto& compiled = runtime.background_recompile();
    multi_fabric.reset();
    return "recompiled: " + std::to_string(compiled.stats.final_rules) +
           " rules";
  }

  if (cmd == "send") {
    if (t.size() < 3) fail("usage: send <name> <f>=<v>... [from-port <idx>]");
    const auto id = lookup(t[1]);
    net::PacketHeader h;
    h.set(net::Field::kEthType, net::kEthTypeIpv4);
    std::size_t from_port = 0;
    for (std::size_t i = 2; i < t.size(); ++i) {
      if (t[i] == "from-port") {
        if (i + 1 >= t.size()) fail("missing port index");
        auto idx = parse_number(t[i + 1]);
        if (!idx) fail("bad port index");
        from_port = *idx;
        ++i;
        continue;
      }
      auto [field, value] = parse_set_token(t[i]);
      h.set(field, value);
    }
    if (multi_fabric) {
      // Route through the multi-switch deployment instead.
      last_send.clear();
      auto frame =
          runtime.router(id, from_port).forward(h, runtime.fabric().arp());
      if (frame) {
        for (auto& delivered : multi_fabric->inject(*frame)) {
          dp::Fabric::Delivery d;
          d.port = delivered.port();
          d.receiver = runtime.fabric().router_at(d.port);
          d.accepted = d.receiver != nullptr &&
                       d.receiver->accepts(delivered);
          d.frame = std::move(delivered);
          last_send.push_back(std::move(d));
        }
      }
    } else {
      last_send = runtime.send(id, h, from_port);
    }
    sent_anything = true;
    if (last_send.empty()) return "dropped";
    std::ostringstream os;
    os << "delivered at port " << last_send[0].port
       << (last_send[0].accepted ? " (accepted)" : " (refused)") << ", dst "
       << last_send[0].frame.dst_ip().to_string();
    return os.str();
  }

  if (cmd == "traffic") {
    // Generated traffic sweep through the batched data-plane path: <k>
    // flows derived from a template header, sampled with linearly
    // decaying weights (flow 0 heaviest) into a <n>-packet stream that is
    // replayed burst by burst via send_batch, with every delivery fed to
    // a TrafficMonitor.
    if (t.size() < 4) {
      fail("usage: traffic <name> count <n> flows <k> [seed <s>] "
           "[burst <b>] [from-port <idx>] <f>=<v>...");
    }
    if (multi_fabric) fail("traffic requires the single-switch fabric");
    const auto id = lookup(t[1]);
    net::PacketHeader tmpl;
    tmpl.set(net::Field::kEthType, net::kEthTypeIpv4);
    std::size_t count = 0, flows = 0, burst = 64, from_port = 0;
    std::uint64_t seed = 1;
    for (std::size_t i = 2; i < t.size(); ++i) {
      const auto keyword = [&](const char* kw, std::size_t& dst) {
        if (t[i] != kw) return false;
        if (i + 1 >= t.size()) fail(std::string("missing value after ") + kw);
        auto v = parse_number(t[i + 1]);
        if (!v) fail("bad value after " + t[i]);
        dst = *v;
        ++i;
        return true;
      };
      std::size_t seed_tmp = 0;
      if (keyword("count", count) || keyword("flows", flows) ||
          keyword("burst", burst) || keyword("from-port", from_port)) {
        continue;
      }
      if (keyword("seed", seed_tmp)) {
        seed = seed_tmp;
        continue;
      }
      auto [field, value] = parse_set_token(t[i]);
      tmpl.set(field, value);
    }
    if (count == 0 || flows == 0 || burst == 0) {
      fail("traffic needs count, flows and burst > 0");
    }

    // Flow j: vary the source host within a handful of /24 blocks (block
    // j%4), so the monitor has real source-block aggregates to rank.
    std::vector<net::PacketHeader> flow_headers;
    flow_headers.reserve(flows);
    const std::uint64_t base_src = tmpl.get(net::Field::kSrcIp);
    for (std::size_t j = 0; j < flows; ++j) {
      net::PacketHeader h = tmpl;
      h.set(net::Field::kSrcIp,
            (base_src & ~0xFFFFull) | ((j % 4) << 8) | ((j / 4 + 1) & 0xFF));
      h.set(net::Field::kSrcPort, 1024 + j);
      flow_headers.push_back(h);
    }

    // Deterministic skewed sampling: flow rank r gets weight (flows - r).
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    const auto next_rand = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    const std::uint64_t total_weight = flows * (flows + 1) / 2;
    std::vector<net::PacketHeader> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t z = next_rand() % total_weight;
      std::size_t r = 0;
      while (z >= flows - r) {
        z -= flows - r;
        ++r;
      }
      stream.push_back(flow_headers[r]);
    }

    TrafficMonitor monitor(/*window_s=*/3600.0);
    std::size_t delivered = 0;
    std::map<std::string, std::size_t> by_participant;
    double now = 0.0;
    for (std::size_t off = 0; off < stream.size(); off += burst) {
      const std::size_t len = std::min(burst, stream.size() - off);
      const auto batch = runtime.send_batch(
          id, std::span<const net::PacketHeader>(stream.data() + off, len),
          from_port);
      for (std::size_t i = 0; i < len; ++i) {
        now += 0.001;
        for (const auto& d : batch.of(i)) {
          ++delivered;
          ParticipantId to = 0;
          std::string who = "port" + std::to_string(d.port);
          try {
            to = runtime.ports().phys_owner(d.port);
            who = runtime.participant(to).name;
          } catch (const std::exception&) {
          }
          ++by_participant[who];
          monitor.observe(now, d.frame, to);
        }
      }
    }

    std::ostringstream os;
    os << "traffic: " << count << " pkts, " << delivered << " delivered";
    if (!by_participant.empty()) {
      os << " (";
      bool first = true;
      for (const auto& [who, cnt] : by_participant) {
        if (!first) os << ", ";
        os << who << ":" << cnt;
        first = false;
      }
      os << ")";
    }
    const auto hitters = monitor.heavy_hitters(now, delivered / 4 + 1);
    if (!hitters.empty()) {
      os << "; top " << hitters[0].source_block.to_string() << " -> "
         << runtime.participant(hitters[0].victim).name << " ("
         << hitters[0].packets << " pkts)";
    }
    sent_anything = true;
    return os.str();
  }

  if (cmd == "explain") {
    if (!runtime.installed()) fail("explain before install");
    if (t.size() < 3) fail("usage: explain <name> <f>=<v>...");
    const auto id = lookup(t[1]);
    net::PacketHeader h;
    h.set(net::Field::kEthType, net::kEthTypeIpv4);
    std::size_t from_port = 0;
    for (std::size_t i = 2; i < t.size(); ++i) {
      if (t[i] == "from-port") {
        if (i + 1 >= t.size()) fail("missing port index");
        auto idx = parse_number(t[i + 1]);
        if (!idx) fail("bad port index");
        from_port = *idx;
        ++i;
        continue;
      }
      auto [field, value] = parse_set_token(t[i]);
      h.set(field, value);
    }
    return core::explain(runtime, id, h, from_port).to_string();
  }

  if (cmd == "expect") {
    if (!sent_anything) fail("expect before any send");
    if (t.size() == 2 && t[1] == "drop") {
      if (!last_send.empty()) {
        fail("expected drop, got delivery at port " +
             std::to_string(last_send[0].port));
      }
      return "ok";
    }
    if (t.size() == 4 && t[1] == "port") {
      const auto id = lookup(t[2]);
      auto idx = parse_number(t[3]);
      if (!idx) fail("bad port index");
      const auto& ports = runtime.participant(id).ports;
      if (*idx >= ports.size()) fail("participant has no port " + t[3]);
      if (last_send.empty()) fail("expected delivery, got drop");
      if (last_send[0].port != ports[*idx].id) {
        fail("expected port " + std::to_string(ports[*idx].id) + ", got " +
             std::to_string(last_send[0].port));
      }
      return "ok";
    }
    if (t.size() == 3 && t[1] == "dstip") {
      auto addr = net::Ipv4Address::try_parse(t[2]);
      if (!addr) fail("bad address");
      if (last_send.empty()) fail("expected delivery, got drop");
      if (last_send[0].frame.dst_ip() != *addr) {
        fail("expected dstip " + addr->to_string() + ", got " +
             last_send[0].frame.dst_ip().to_string());
      }
      return "ok";
    }
    fail("usage: expect drop | expect port <name> <idx> | expect dstip <a>");
  }

  if (cmd == "audit") {
    if (!runtime.installed()) fail("audit before install");
    auto report = audit(runtime.compiled(), runtime.participants(),
                        runtime.ports(), runtime.route_server());
    if (!report.ok()) fail(report.to_string());
    return "audit clean (" + std::to_string(report.local_rules_checked) +
           " rules)";
  }

  if (cmd == "verify") {
    if (!runtime.installed()) fail("verify before install");
    auto report = runtime.verify_now();
    if (!report.ok()) fail(report.to_string());
    std::ostringstream os;
    os << "verify clean (" << report.classes_checked << " classes, "
       << report.prefixes_checked << " prefixes, " << report.edges_walked
       << " edges, " << report.local_rules_checked << " rules)";
    return os.str();
  }

  if (cmd == "show") {
    if (t.size() < 2) fail("usage: show stats|groups|log|rules [n]");
    if (t[1] == "stats") {
      if (!runtime.installed()) fail("show stats before install");
      const auto& s = runtime.compiled().stats;
      std::ostringstream os;
      os << "participants=" << s.participants
         << " prefixes=" << s.prefixes_total
         << " grouped=" << s.prefixes_grouped
         << " groups=" << s.prefix_groups << " rules=" << s.final_rules;
      return os.str();
    }
    if (t[1] == "groups") {
      if (!runtime.installed()) fail("show groups before install");
      std::ostringstream os;
      const auto& fecs = runtime.compiled().fecs;
      for (std::size_t g = 0; g < fecs.groups.size(); ++g) {
        os << "group " << g << ": " << fecs.groups[g].prefixes.size()
           << " prefixes, " << fecs.groups[g].clauses.size() << " clauses\n";
      }
      return os.str();
    }
    if (t[1] == "log") {
      std::ostringstream os;
      for (const auto& e : runtime.update_log()) {
        os << e.prefix.to_string() << ": " << e.additional_rules
           << " rules in " << e.fast_seconds * 1e3 << " ms\n";
      }
      return os.str();
    }
    if (t[1] == "rules") {
      if (!runtime.installed()) fail("show rules before install");
      std::size_t n = 20;
      if (t.size() == 3) {
        auto parsed = parse_number(t[2]);
        if (!parsed) fail("bad count");
        n = *parsed;
      }
      std::ostringstream os;
      const auto& rules = runtime.compiled().fabric.rules();
      for (std::size_t i = 0; i < rules.size() && i < n; ++i) {
        os << i << ": " << rules[i].to_string() << "\n";
      }
      return os.str();
    }
    fail("unknown show target '" + t[1] + "'");
  }

  if (cmd == "save") {
    if (t.size() != 2) fail("usage: save <dir>");
    if (runtime.journaling()) {
      if (runtime.journal()->directory() != t[1]) {
        fail("journal already attached at " +
             runtime.journal()->directory());
      }
    } else {
      runtime.attach_journal(t[1]);
    }
    const std::uint64_t lsn = runtime.checkpoint();
    return "checkpoint written at lsn " + std::to_string(lsn);
  }

  if (cmd == "recover") {
    if (t.size() != 2) fail("usage: recover <dir>");
    const auto report = runtime.recover(t[1]);
    std::ostringstream os;
    os << (report.warm ? "warm" : "cold") << " restart from " << t[1] << ":";
    if (report.had_checkpoint) {
      os << " checkpoint lsn " << report.checkpoint_lsn << ",";
    }
    os << " replayed " << report.replayed << " records in "
       << report.seconds * 1e3 << " ms";
    return os.str();
  }

  if (cmd == "journal") {
    const persist::Journal* j = runtime.journal();
    if (j == nullptr) return "journal: not attached";
    std::ostringstream os;
    os << "journal " << j->directory() << ": next lsn " << j->next_lsn()
       << ", " << j->bytes_appended() << " bytes appended, last checkpoint"
       << " lsn " << j->last_checkpoint_lsn();
    return os.str();
  }

  fail("unknown command '" + cmd + "'");
}

ScenarioInterpreter::ScenarioInterpreter() : impl_(std::make_unique<Impl>()) {}
ScenarioInterpreter::~ScenarioInterpreter() = default;

SdxRuntime& ScenarioInterpreter::runtime() { return impl_->runtime; }
const SdxRuntime& ScenarioInterpreter::runtime() const {
  return impl_->runtime;
}

ScenarioInterpreter::Result ScenarioInterpreter::execute_line(
    const std::string& line) {
  auto tokens = tokenize(line);
  if (tokens.empty()) return {true, ""};
  try {
    return {true, impl_->handle(tokens)};
  } catch (const ScenarioError& e) {
    return {false, e.what};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

std::size_t ScenarioInterpreter::run(std::istream& in, std::ostream& out,
                                     bool echo_commands) {
  std::size_t failures = 0;
  std::size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (echo_commands && !line.empty() && line[0] != '#') {
      out << "> " << line << "\n";
    }
    auto result = execute_line(line);
    if (!result.ok) {
      ++failures;
      out << "line " << line_no << ": error: " << result.output << "\n";
    } else if (!result.output.empty()) {
      out << result.output << "\n";
    }
  }
  return failures;
}

}  // namespace sdx::core
