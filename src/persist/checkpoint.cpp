#include "persist/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

#include "persist/crc32c.hpp"

namespace sdx::persist {

namespace {

constexpr char kMagic[8] = {'S', 'D', 'X', 'C', 'K', 'P', 'T', '1'};
// Bumped whenever the payload layout changes. An older checkpoint no
// longer loads (try_load_checkpoint rejects the version), which is the
// intended behaviour: recovery falls back to WAL replay + cold install
// rather than adopting state encoded under another layout.
constexpr std::uint32_t kVersion = 4;
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void put_defaults(Encoder& e, const core::DefaultVector& defaults) {
  e.u32(static_cast<std::uint32_t>(defaults.size()));
  for (const auto& d : defaults) {
    e.boolean(d.has_value());
    if (d) e.u32(*d);
  }
}

core::DefaultVector get_defaults(Decoder& d) {
  const std::uint32_t n = d.count(1);
  core::DefaultVector defaults;
  defaults.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (d.boolean()) {
      defaults.push_back(d.u32());
    } else {
      defaults.push_back(std::nullopt);
    }
  }
  return defaults;
}

void put_binding(Encoder& e, const core::VnhBinding& b) {
  e.ip(b.vnh);
  e.mac(b.vmac);
}

core::VnhBinding get_binding(Decoder& d) {
  core::VnhBinding b;
  b.vnh = d.ip();
  b.vmac = d.mac();
  return b;
}

void put_layout(Encoder& e, const core::VmacLayout& layout) {
  e.u8(layout.group_bits);
  e.u8(layout.nexthop_bits);
  e.u8(layout.attr_bits);
}

core::VmacLayout get_layout(Decoder& d) {
  core::VmacLayout layout;
  layout.group_bits = d.u8();
  layout.nexthop_bits = d.u8();
  layout.attr_bits = d.u8();
  try {
    layout.validate();
  } catch (const std::invalid_argument&) {
    throw CodecError("invalid VMAC layout in checkpoint");
  }
  return layout;
}

void put_fec(Encoder& e, const core::FecResult& fecs) {
  e.u32(static_cast<std::uint32_t>(fecs.groups.size()));
  for (const auto& g : fecs.groups) {
    e.u32(static_cast<std::uint32_t>(g.prefixes.size()));
    for (auto p : g.prefixes) e.prefix(p);
    e.u32(static_cast<std::uint32_t>(g.clauses.size()));
    for (std::uint32_t id : g.clauses) e.u32(id);
    put_defaults(e, g.defaults);
  }
}

core::FecResult get_fec(Decoder& d) {
  core::FecResult fecs;
  const std::uint32_t ngroups = d.count();
  fecs.groups.reserve(ngroups);
  for (std::uint32_t i = 0; i < ngroups; ++i) {
    core::PrefixGroup g;
    const std::uint32_t nprefixes = d.count(5);
    g.prefixes.reserve(nprefixes);
    for (std::uint32_t j = 0; j < nprefixes; ++j) {
      g.prefixes.push_back(d.prefix());
    }
    const std::uint32_t nclauses = d.count(4);
    g.clauses.reserve(nclauses);
    for (std::uint32_t j = 0; j < nclauses; ++j) g.clauses.push_back(d.u32());
    g.defaults = get_defaults(d);
    fecs.groups.push_back(std::move(g));
  }
  // group_of is an index over groups — rebuild rather than store.
  for (std::uint32_t i = 0; i < fecs.groups.size(); ++i) {
    for (auto p : fecs.groups[i].prefixes) fecs.group_of[p] = i;
  }
  return fecs;
}

void put_reaches(Encoder& e, const std::vector<core::ClauseReach>& reaches) {
  e.u32(static_cast<std::uint32_t>(reaches.size()));
  for (const auto& r : reaches) {
    e.u32(r.owner);
    e.u64(r.clause_index);
    e.u32(static_cast<std::uint32_t>(r.prefixes.size()));
    for (auto p : r.prefixes) e.prefix(p);
  }
}

std::vector<core::ClauseReach> get_reaches(Decoder& d) {
  std::vector<core::ClauseReach> reaches;
  const std::uint32_t nreaches = d.count();
  reaches.reserve(nreaches);
  for (std::uint32_t i = 0; i < nreaches; ++i) {
    core::ClauseReach r;
    r.owner = d.u32();
    r.clause_index = static_cast<std::size_t>(d.u64());
    const std::uint32_t nprefixes = d.count(5);
    r.prefixes.reserve(nprefixes);
    for (std::uint32_t j = 0; j < nprefixes; ++j) {
      r.prefixes.push_back(d.prefix());
    }
    reaches.push_back(std::move(r));
  }
  return reaches;
}

void put_compiled(Encoder& e, const core::CompiledSdx& c) {
  put_layout(e, c.layout);
  e.boolean(c.partitioned);
  // Partitioned mode: the fabric is derived (partition concat + shared
  // band) — encode an empty classifier in its slot and rebuild on decode.
  put_classifier(e, c.partitioned ? policy::Classifier{} : c.fabric);
  put_fec(e, c.fecs);
  e.u32(static_cast<std::uint32_t>(c.bindings.size()));
  for (const auto& b : c.bindings) put_binding(e, b);
  put_reaches(e, c.reaches);
  if (c.partitioned) {
    put_classifier(e, c.shared_rules);
    e.u32(static_cast<std::uint32_t>(c.partitions.size()));
    for (const auto& part : c.partitions) {
      e.u32(part.owner);
      put_fec(e, part.fecs);
      e.u32(static_cast<std::uint32_t>(part.bindings.size()));
      for (const auto& b : part.bindings) put_binding(e, b);
      put_reaches(e, part.reaches);
      put_classifier(e, part.rules);
    }
  }
  // stats deliberately not serialized: timings are not state, and zeroed
  // stats keep the encoding canonical across captures of the same artifact.
}

core::CompiledSdx get_compiled(Decoder& d) {
  core::CompiledSdx c;
  c.layout = get_layout(d);
  c.partitioned = d.boolean();
  c.fabric = get_classifier(d);
  c.fecs = get_fec(d);
  const std::uint32_t nbindings = d.count();
  c.bindings.reserve(nbindings);
  for (std::uint32_t i = 0; i < nbindings; ++i) {
    c.bindings.push_back(get_binding(d));
  }
  c.reaches = get_reaches(d);
  if (c.partitioned) {
    c.shared_rules = get_classifier(d);
    const std::uint32_t nparts = d.count();
    c.partitions.reserve(nparts);
    for (std::uint32_t i = 0; i < nparts; ++i) {
      core::CompiledPartition part;
      part.owner = d.u32();
      part.fecs = get_fec(d);
      const std::uint32_t npb = d.count();
      part.bindings.reserve(npb);
      for (std::uint32_t j = 0; j < npb; ++j) {
        part.bindings.push_back(get_binding(d));
      }
      part.reaches = get_reaches(d);
      part.rules = get_classifier(d);
      c.partitions.push_back(std::move(part));
    }
    c.rebuild_fabric();
  }
  return c;
}

}  // namespace

std::string encode_checkpoint(const CheckpointState& state) {
  Encoder e;
  e.u64(state.lsn);
  e.u32(static_cast<std::uint32_t>(state.participants.size()));
  for (const auto& p : state.participants) put_participant(e, p);
  e.u32(static_cast<std::uint32_t>(state.routes.size()));
  for (const auto& r : state.routes) put_route(e, r);
  e.prefix(state.vnh_pool);
  e.u64(state.vnh_allocated);
  e.boolean(state.installed);
  if (state.installed) {
    put_compiled(e, state.compiled);
    e.str(state.fingerprint);
    e.u32(static_cast<std::uint32_t>(state.fast_bindings.size()));
    for (const auto& [prefix, binding] : state.fast_bindings) {
      e.prefix(prefix);
      put_binding(e, binding);
    }
    e.u32(static_cast<std::uint32_t>(state.unbound.size()));
    for (auto prefix : state.unbound) e.prefix(prefix);
    e.u32(static_cast<std::uint32_t>(state.remote_bindings.size()));
    for (const auto& [id, binding] : state.remote_bindings) {
      e.u32(id);
      put_binding(e, binding);
    }
    e.u32(static_cast<std::uint32_t>(state.extra_rules.size()));
    for (const auto& extra : state.extra_rules) {
      e.u32(extra.priority);
      e.u64(extra.cookie);
      put_rule(e, extra.rule);
    }
  }
  return e.take();
}

CheckpointState decode_checkpoint(std::string_view payload) {
  Decoder d(payload);
  CheckpointState st;
  st.lsn = d.u64();
  const std::uint32_t nparticipants = d.count();
  st.participants.reserve(nparticipants);
  for (std::uint32_t i = 0; i < nparticipants; ++i) {
    st.participants.push_back(get_participant(d));
  }
  const std::uint32_t nroutes = d.count();
  st.routes.reserve(nroutes);
  for (std::uint32_t i = 0; i < nroutes; ++i) st.routes.push_back(get_route(d));
  st.vnh_pool = d.prefix();
  st.vnh_allocated = d.u64();
  st.installed = d.boolean();
  if (st.installed) {
    st.compiled = get_compiled(d);
    st.fingerprint = d.str();
    const std::uint32_t nfast = d.count();
    st.fast_bindings.reserve(nfast);
    for (std::uint32_t i = 0; i < nfast; ++i) {
      const auto prefix = d.prefix();
      st.fast_bindings.emplace_back(prefix, get_binding(d));
    }
    const std::uint32_t nunbound = d.count();
    st.unbound.reserve(nunbound);
    for (std::uint32_t i = 0; i < nunbound; ++i) {
      st.unbound.push_back(d.prefix());
    }
    const std::uint32_t nremote = d.count();
    st.remote_bindings.reserve(nremote);
    for (std::uint32_t i = 0; i < nremote; ++i) {
      const auto id = d.u32();
      st.remote_bindings.emplace_back(id, get_binding(d));
    }
    const std::uint32_t nextra = d.count();
    st.extra_rules.reserve(nextra);
    for (std::uint32_t i = 0; i < nextra; ++i) {
      CheckpointState::ExtraRule extra;
      extra.priority = d.u32();
      extra.cookie = d.u64();
      extra.rule = get_rule(d);
      st.extra_rules.push_back(std::move(extra));
    }
  }
  if (!d.done()) throw CodecError("trailing bytes in checkpoint payload");
  return st;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointState& state) {
  const std::string payload = encode_checkpoint(state);
  Encoder header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kVersion);
  header.u32(crc32c(payload));
  header.u64(payload.size());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw_errno("create checkpoint temp " + tmp);
  auto fail = [&](const char* what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno(what + (" " + tmp));
  };
  auto write_all = [&](std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("write checkpoint");
      }
      off += static_cast<std::size_t>(n);
    }
  };
  write_all(header.bytes());
  write_all(payload);
  if (::fsync(fd) != 0) fail("fsync checkpoint");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("close checkpoint " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("rename checkpoint into place " + path);
  }
  // fsync the directory so the rename itself is durable.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_DIRECTORY | O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::optional<CheckpointState> try_load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  if (data.size() < kFileHeaderBytes) return std::nullopt;
  if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    return std::nullopt;
  }
  Decoder header(std::string_view(data).substr(sizeof kMagic));
  const std::uint32_t version = header.u32();
  if (version != kVersion) return std::nullopt;
  const std::uint32_t stored_crc = header.u32();
  const std::uint64_t payload_len = header.u64();
  if (data.size() - kFileHeaderBytes != payload_len) return std::nullopt;
  const std::string_view payload(data.data() + kFileHeaderBytes, payload_len);
  if (crc32c(payload) != stored_crc) return std::nullopt;
  try {
    return decode_checkpoint(payload);
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

}  // namespace sdx::persist
