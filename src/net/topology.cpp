#include "net/topology.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/json_reader.h"

namespace pq::net {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw TopologyError(msg); }

std::string elem(const char* kind, std::size_t i) {
  return std::string(kind) + "[" + std::to_string(i) + "]";
}

}  // namespace

// ---------------------------------------------------------------------------
// Derived lookups
// ---------------------------------------------------------------------------

const LinkConfig* Topology::link_at(std::uint32_t sw,
                                    std::uint32_t port) const {
  if (sw >= port_link_.size() || port >= port_link_[sw].size()) return nullptr;
  const std::int32_t idx = port_link_[sw][port];
  return idx < 0 ? nullptr : &links[static_cast<std::size_t>(idx)];
}

const HostConfig* Topology::host_at(std::uint32_t sw,
                                    std::uint32_t port) const {
  if (sw >= port_host_.size() || port >= port_host_[sw].size()) return nullptr;
  const std::int32_t idx = port_host_[sw][port];
  return idx < 0 ? nullptr : &hosts[static_cast<std::size_t>(idx)];
}

std::optional<std::uint32_t> Topology::host_by_ip(std::uint32_t ip) const {
  for (const HostConfig& h : hosts) {
    if (h.ip == ip) return h.id;
  }
  return std::nullopt;
}

const std::vector<std::uint32_t>& Topology::route_ports(
    std::uint32_t sw, std::uint32_t dst_host) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (sw >= route_index_.size() || dst_host >= route_index_[sw].size()) {
    return kEmpty;
  }
  const std::int32_t idx = route_index_[sw][dst_host];
  return idx < 0 ? kEmpty : routes[static_cast<std::size_t>(idx)].ports;
}

std::uint32_t Topology::next_port(std::uint32_t sw, std::uint32_t dst_host,
                                  const FlowId& flow) const {
  const std::vector<std::uint32_t>& set = route_ports(sw, dst_host);
  if (set.empty()) {
    fail("topology: no route at switch " + std::to_string(sw) + " for host " +
         std::to_string(dst_host));
  }
  if (set.size() == 1) return set[0];
  return set[ecmp_signature(flow) % set.size()];
}

std::optional<Duration> Topology::min_link_delay() const {
  std::optional<Duration> best;
  for (const LinkConfig& l : links) {
    if (!best || l.delay_ns < *best) best = l.delay_ns;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void Topology::validate() {
  // Switches: dense ids, ports dense with port_id == index.
  for (std::size_t i = 0; i < switches.size(); ++i) {
    const SwitchConfig& sw = switches[i];
    if (sw.id != i) {
      fail("topology: " + elem("switches", i) + " has id " +
           std::to_string(sw.id) + ", must equal its index");
    }
    if (sw.ports.empty()) {
      fail("topology: " + elem("switches", i) + " has no ports");
    }
    for (std::size_t p = 0; p < sw.ports.size(); ++p) {
      if (sw.ports[p].port_id != p) {
        fail("topology: switch " + std::to_string(i) + " port " +
             std::to_string(p) + " has port_id " +
             std::to_string(sw.ports[p].port_id) + ", must equal its index");
      }
      if (sw.ports[p].line_rate_gbps <= 0.0) {
        fail("topology: switch " + std::to_string(i) + " port " +
             std::to_string(p) + " has non-positive line rate");
      }
    }
  }

  port_link_.assign(switches.size(), {});
  port_host_.assign(switches.size(), {});
  for (std::size_t i = 0; i < switches.size(); ++i) {
    port_link_[i].assign(switches[i].ports.size(), -1);
    port_host_[i].assign(switches[i].ports.size(), -1);
  }

  auto check_port = [&](const char* what, std::size_t i, std::uint32_t sw,
                        std::uint32_t port) {
    if (sw >= switches.size()) {
      fail("topology: " + elem(what, i) + " references unknown switch " +
           std::to_string(sw));
    }
    if (port >= switches[sw].ports.size()) {
      fail("topology: " + elem(what, i) + " references unknown port " +
           std::to_string(port) + " on switch " + std::to_string(sw));
    }
  };

  // Links.
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkConfig& l = links[i];
    check_port("links", i, l.from_switch, l.from_port);
    if (l.to_switch >= switches.size()) {
      fail("topology: " + elem("links", i) + " references unknown switch " +
           std::to_string(l.to_switch));
    }
    if (l.delay_ns <= 0) {
      fail("topology: " + elem("links", i) +
           " has non-positive delay (links need delay > 0: it is the "
           "conservative lookahead)");
    }
    if (l.from_switch == l.to_switch) {
      fail("topology: " + elem("links", i) + " is a self-loop on switch " +
           std::to_string(l.from_switch));
    }
    std::int32_t& slot = port_link_[l.from_switch][l.from_port];
    if (slot >= 0) {
      fail("topology: " + elem("links", i) + " duplicates link from switch " +
           std::to_string(l.from_switch) + " port " +
           std::to_string(l.from_port));
    }
    slot = static_cast<std::int32_t>(i);
  }

  // Hosts: dense ids, unique ips, attach to an existing unlinked port.
  std::unordered_set<std::uint32_t> ips;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostConfig& h = hosts[i];
    if (h.id != i) {
      fail("topology: " + elem("hosts", i) + " has id " +
           std::to_string(h.id) + ", must equal its index");
    }
    check_port("hosts", i, h.attach_switch, h.attach_port);
    if (!ips.insert(h.ip).second) {
      fail("topology: " + elem("hosts", i) + " reuses ip " +
           std::to_string(h.ip));
    }
    if (port_link_[h.attach_switch][h.attach_port] >= 0) {
      fail("topology: " + elem("hosts", i) + " attaches to switch " +
           std::to_string(h.attach_switch) + " port " +
           std::to_string(h.attach_port) + " which already carries a link");
    }
    std::int32_t& slot = port_host_[h.attach_switch][h.attach_port];
    if (slot >= 0) {
      fail("topology: " + elem("hosts", i) + " attaches to switch " +
           std::to_string(h.attach_switch) + " port " +
           std::to_string(h.attach_port) + " which already has a host");
    }
    slot = static_cast<std::int32_t>(i);
  }

  // Routes: referential integrity, duplicate-free port sets, every routed
  // port leads somewhere sensible for the destination.
  route_index_.assign(switches.size(), {});
  for (std::size_t i = 0; i < switches.size(); ++i) {
    route_index_[i].assign(hosts.size(), -1);
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const RouteEntry& r = routes[i];
    if (r.sw >= switches.size()) {
      fail("topology: " + elem("routes", i) + " references unknown switch " +
           std::to_string(r.sw));
    }
    if (r.dst_host >= hosts.size()) {
      fail("topology: " + elem("routes", i) + " references unknown host " +
           std::to_string(r.dst_host));
    }
    if (r.ports.empty()) {
      fail("topology: " + elem("routes", i) + " has an empty port set");
    }
    std::unordered_set<std::uint32_t> seen;
    for (std::uint32_t port : r.ports) {
      check_port("routes", i, r.sw, port);
      if (!seen.insert(port).second) {
        fail("topology: " + elem("routes", i) + " lists port " +
             std::to_string(port) + " twice");
      }
      const std::int32_t host_idx = port_host_[r.sw][port];
      if (port_link_[r.sw][port] < 0) {
        if (host_idx < 0) {
          fail("topology: " + elem("routes", i) + " routes through switch " +
               std::to_string(r.sw) + " port " + std::to_string(port) +
               " which has neither a link nor a host");
        }
        if (static_cast<std::uint32_t>(host_idx) != r.dst_host) {
          fail("topology: " + elem("routes", i) + " for host " +
               std::to_string(r.dst_host) + " routes to switch " +
               std::to_string(r.sw) + " port " + std::to_string(port) +
               " but that port attaches host " + std::to_string(host_idx));
        }
      }
    }
    std::int32_t& slot = route_index_[r.sw][r.dst_host];
    if (slot >= 0) {
      fail("topology: " + elem("routes", i) + " duplicates the route at "
           "switch " + std::to_string(r.sw) + " for host " +
           std::to_string(r.dst_host));
    }
    slot = static_cast<std::int32_t>(i);
  }

  // Per-destination loop/termination check: from any switch with a route for
  // host d, every equal-cost choice must (transitively) reach d's attach
  // port without revisiting a switch, and every switch reached on the way
  // must itself have a route for d.
  for (std::size_t d = 0; d < hosts.size(); ++d) {
    // 0 = unvisited, 1 = on the DFS stack, 2 = proven to reach d.
    std::vector<std::uint8_t> state(switches.size(), 0);
    std::vector<std::uint32_t> stack;
    for (std::uint32_t start = 0; start < switches.size(); ++start) {
      if (route_index_[start][d] < 0 || state[start] == 2) continue;
      stack.push_back(start);
      while (!stack.empty()) {
        const std::uint32_t sw = stack.back();
        if (state[sw] == 0) {
          state[sw] = 1;
          if (route_index_[sw][d] < 0) {
            fail("topology: routes for host " + std::to_string(d) +
                 " forward into switch " + std::to_string(sw) +
                 " which has no route for it");
          }
          const RouteEntry& r =
              routes[static_cast<std::size_t>(route_index_[sw][d])];
          for (std::uint32_t port : r.ports) {
            const std::int32_t li = port_link_[sw][port];
            if (li < 0) continue;  // host-terminal port, validated above
            const std::uint32_t nxt =
                links[static_cast<std::size_t>(li)].to_switch;
            if (state[nxt] == 1) {
              fail("topology: routing loop for host " + std::to_string(d) +
                   " through switches " + std::to_string(sw) + " and " +
                   std::to_string(nxt));
            }
            if (state[nxt] == 0) stack.push_back(nxt);
          }
        } else {
          // children done (or revisit of a finished node)
          state[sw] = 2;
          stack.pop_back();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

// Schema-directed recursive descent over the shared JSON cursor
// (common/json_reader.h); every malformed step throws TopologyError.
void expect(JsonCursor& c, char ch, const char* where) {
  if (!c.eat(ch)) {
    fail(std::string("topology json: expected '") + ch + "' in " + where +
         " near byte " + std::to_string(c.offset()));
  }
}

std::string parse_string(JsonCursor& c, const char* where) {
  std::string out;
  if (!c.string(out)) {
    fail(std::string("topology json: expected an unescaped string in ") +
         where + " near byte " + std::to_string(c.offset()));
  }
  return out;
}

double parse_number(JsonCursor& c, const char* where) {
  double v = 0.0;
  if (!c.number(v)) {
    fail(std::string("topology json: expected a number in ") + where +
         " near byte " + std::to_string(c.offset()));
  }
  return v;
}

std::uint32_t parse_u32(JsonCursor& c, const char* where) {
  const double v = parse_number(c, where);
  if (v < 0 || v != static_cast<double>(static_cast<std::uint64_t>(v)) ||
      v > 4294967295.0) {
    fail(std::string("topology json: ") + where +
         " must be a 32-bit unsigned integer");
  }
  return static_cast<std::uint32_t>(v);
}

std::int64_t parse_i64(JsonCursor& c, const char* where) {
  const double v = parse_number(c, where);
  if (v != static_cast<double>(static_cast<std::int64_t>(v))) {
    fail(std::string("topology json: ") + where + " must be an integer");
  }
  return static_cast<std::int64_t>(v);
}

/// Drives `field(key)` over every "key": <value> pair of an object; field
/// must consume the value and return true, or false for an unknown key.
template <typename FieldFn>
void parse_object(JsonCursor& c, const char* where, FieldFn field) {
  expect(c, '{', where);
  if (c.eat('}')) return;
  for (;;) {
    const std::string key = parse_string(c, where);
    expect(c, ':', where);
    if (!field(key)) {
      fail(std::string("topology json: unknown key \"") + key + "\" in " +
           where);
    }
    if (c.eat(',')) continue;
    expect(c, '}', where);
    return;
  }
}

/// Drives `element()` over every element of an array.
template <typename ElemFn>
void parse_array(JsonCursor& c, const char* where, ElemFn element) {
  expect(c, '[', where);
  if (c.eat(']')) return;
  for (;;) {
    element();
    if (c.eat(',')) continue;
    expect(c, ']', where);
    return;
  }
}

sim::PortConfig parse_port(JsonCursor& c) {
  sim::PortConfig port;
  parse_object(c, "ports[]", [&](const std::string& key) {
    if (key == "port_id") port.port_id = parse_u32(c, "port_id");
    else if (key == "line_rate_gbps")
      port.line_rate_gbps = parse_number(c, "line_rate_gbps");
    else if (key == "capacity_cells")
      port.capacity_cells = parse_u32(c, "capacity_cells");
    else
      return false;
    return true;
  });
  return port;
}

SwitchConfig parse_switch(JsonCursor& c) {
  SwitchConfig sw;
  parse_object(c, "switches[]", [&](const std::string& key) {
    if (key == "id") sw.id = parse_u32(c, "switch id");
    else if (key == "name") sw.name = parse_string(c, "switch name");
    else if (key == "ports")
      parse_array(c, "ports", [&] { sw.ports.push_back(parse_port(c)); });
    else
      return false;
    return true;
  });
  return sw;
}

HostConfig parse_host(JsonCursor& c) {
  HostConfig h;
  parse_object(c, "hosts[]", [&](const std::string& key) {
    if (key == "id") h.id = parse_u32(c, "host id");
    else if (key == "attach_switch")
      h.attach_switch = parse_u32(c, "attach_switch");
    else if (key == "attach_port") h.attach_port = parse_u32(c, "attach_port");
    else if (key == "ip") h.ip = parse_u32(c, "host ip");
    else
      return false;
    return true;
  });
  return h;
}

LinkConfig parse_link(JsonCursor& c) {
  LinkConfig l;
  parse_object(c, "links[]", [&](const std::string& key) {
    if (key == "from_switch") l.from_switch = parse_u32(c, "from_switch");
    else if (key == "from_port") l.from_port = parse_u32(c, "from_port");
    else if (key == "to_switch") l.to_switch = parse_u32(c, "to_switch");
    else if (key == "delay_ns")
      l.delay_ns = static_cast<Duration>(parse_i64(c, "delay_ns"));
    else
      return false;
    return true;
  });
  return l;
}

RouteEntry parse_route(JsonCursor& c) {
  RouteEntry r;
  parse_object(c, "routes[]", [&](const std::string& key) {
    if (key == "switch") r.sw = parse_u32(c, "route switch");
    else if (key == "dst_host") r.dst_host = parse_u32(c, "dst_host");
    else if (key == "ports")
      parse_array(c, "route ports",
                  [&] { r.ports.push_back(parse_u32(c, "route port")); });
    else
      return false;
    return true;
  });
  return r;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Topology load_topology(const std::string& json_text) {
  JsonCursor c(json_text);
  Topology t;
  parse_object(c, "topology", [&](const std::string& key) {
    if (key == "name") t.name = parse_string(c, "topology name");
    else if (key == "switches")
      parse_array(c, "switches",
                  [&] { t.switches.push_back(parse_switch(c)); });
    else if (key == "hosts")
      parse_array(c, "hosts", [&] { t.hosts.push_back(parse_host(c)); });
    else if (key == "links")
      parse_array(c, "links", [&] { t.links.push_back(parse_link(c)); });
    else if (key == "routes")
      parse_array(c, "routes", [&] { t.routes.push_back(parse_route(c)); });
    else
      return false;
    return true;
  });
  if (!c.done()) fail("topology json: trailing bytes after '}'");
  t.validate();
  return t;
}

Topology load_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("topology json: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_topology(buf.str());
}

std::string to_json(const Topology& t) {
  std::ostringstream out;
  out << "{\n  \"name\": \"" << t.name << "\",\n  \"switches\": [";
  for (std::size_t i = 0; i < t.switches.size(); ++i) {
    const SwitchConfig& sw = t.switches[i];
    out << (i ? ",\n    " : "\n    ") << "{\"id\": " << sw.id
        << ", \"name\": \"" << sw.name << "\", \"ports\": [";
    for (std::size_t p = 0; p < sw.ports.size(); ++p) {
      const sim::PortConfig& port = sw.ports[p];
      out << (p ? ",\n      " : "\n      ") << "{\"port_id\": "
          << port.port_id << ", \"line_rate_gbps\": "
          << fmt_double(port.line_rate_gbps) << ", \"capacity_cells\": "
          << port.capacity_cells << "}";
    }
    out << "]}";
  }
  out << "\n  ],\n  \"hosts\": [";
  for (std::size_t i = 0; i < t.hosts.size(); ++i) {
    const HostConfig& h = t.hosts[i];
    out << (i ? ",\n    " : "\n    ") << "{\"id\": " << h.id
        << ", \"attach_switch\": " << h.attach_switch << ", \"attach_port\": "
        << h.attach_port << ", \"ip\": " << h.ip << "}";
  }
  out << "\n  ],\n  \"links\": [";
  for (std::size_t i = 0; i < t.links.size(); ++i) {
    const LinkConfig& l = t.links[i];
    out << (i ? ",\n    " : "\n    ") << "{\"from_switch\": " << l.from_switch
        << ", \"from_port\": " << l.from_port << ", \"to_switch\": "
        << l.to_switch << ", \"delay_ns\": " << l.delay_ns << "}";
  }
  out << "\n  ],\n  \"routes\": [";
  for (std::size_t i = 0; i < t.routes.size(); ++i) {
    const RouteEntry& r = t.routes[i];
    out << (i ? ",\n    " : "\n    ") << "{\"switch\": " << r.sw
        << ", \"dst_host\": " << r.dst_host << ", \"ports\": [";
    for (std::size_t p = 0; p < r.ports.size(); ++p) {
      out << (p ? ", " : "") << r.ports[p];
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

Topology make_leaf_spine(const LeafSpineParams& p) {
  if (p.leaves == 0 || p.spines == 0 || p.hosts_per_leaf == 0) {
    fail("leaf-spine: leaves, spines and hosts_per_leaf must be positive");
  }
  Topology t;
  t.name = "leafspine_l" + std::to_string(p.leaves) + "_s" +
           std::to_string(p.spines) + "_h" + std::to_string(p.hosts_per_leaf);

  const std::uint32_t H = p.hosts_per_leaf;
  auto port = [&](std::uint32_t id, double gbps) {
    sim::PortConfig pc;
    pc.port_id = id;
    pc.line_rate_gbps = gbps;
    pc.capacity_cells = p.capacity_cells;
    return pc;
  };

  for (std::uint32_t l = 0; l < p.leaves; ++l) {
    SwitchConfig sw;
    sw.id = l;
    sw.name = "leaf" + std::to_string(l);
    for (std::uint32_t h = 0; h < H; ++h) sw.ports.push_back(port(h, p.host_gbps));
    for (std::uint32_t s = 0; s < p.spines; ++s) {
      sw.ports.push_back(port(H + s, p.fabric_gbps));
    }
    t.switches.push_back(std::move(sw));
  }
  for (std::uint32_t s = 0; s < p.spines; ++s) {
    SwitchConfig sw;
    sw.id = p.leaves + s;
    sw.name = "spine" + std::to_string(s);
    for (std::uint32_t l = 0; l < p.leaves; ++l) {
      sw.ports.push_back(port(l, p.fabric_gbps));
    }
    t.switches.push_back(std::move(sw));
  }

  for (std::uint32_t l = 0; l < p.leaves; ++l) {
    for (std::uint32_t h = 0; h < H; ++h) {
      HostConfig host;
      host.id = l * H + h;
      host.attach_switch = l;
      host.attach_port = h;
      host.ip = default_host_ip(host.id);
      t.hosts.push_back(host);
    }
    for (std::uint32_t s = 0; s < p.spines; ++s) {
      t.links.push_back({l, H + s, p.leaves + s, p.link_delay_ns});
      t.links.push_back({p.leaves + s, l, l, p.link_delay_ns});
    }
  }

  std::vector<std::uint32_t> uplinks;
  for (std::uint32_t s = 0; s < p.spines; ++s) uplinks.push_back(H + s);
  for (std::uint32_t d = 0; d < p.leaves * H; ++d) {
    const std::uint32_t dst_leaf = d / H;
    for (std::uint32_t l = 0; l < p.leaves; ++l) {
      RouteEntry r;
      r.sw = l;
      r.dst_host = d;
      r.ports = (l == dst_leaf) ? std::vector<std::uint32_t>{d % H} : uplinks;
      t.routes.push_back(std::move(r));
    }
    for (std::uint32_t s = 0; s < p.spines; ++s) {
      t.routes.push_back({p.leaves + s, d, {dst_leaf}});
    }
  }

  t.validate();
  return t;
}

Topology make_fat_tree(const FatTreeParams& p) {
  const std::uint32_t k = p.k;
  if (k < 2 || (k % 2) != 0) fail("fat-tree: k must be even and >= 2");
  const std::uint32_t half = k / 2;
  const std::uint32_t num_edges = k * half;       // k pods * k/2 edges
  const std::uint32_t num_aggs = k * half;        // k pods * k/2 aggs
  const auto edge_id = [&](std::uint32_t pod, std::uint32_t e) {
    return pod * half + e;
  };
  const auto agg_id = [&](std::uint32_t pod, std::uint32_t a) {
    return num_edges + pod * half + a;
  };
  const auto core_id = [&](std::uint32_t a, std::uint32_t j) {
    return num_edges + num_aggs + a * half + j;
  };

  Topology t;
  t.name = "fattree_k" + std::to_string(k);

  auto port = [&](std::uint32_t id, double gbps) {
    sim::PortConfig pc;
    pc.port_id = id;
    pc.line_rate_gbps = gbps;
    pc.capacity_cells = p.capacity_cells;
    return pc;
  };

  // Edge switches: ports [0, k/2) host downlinks, [k/2, k) agg uplinks.
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      SwitchConfig sw;
      sw.id = edge_id(pod, e);
      sw.name = "edge_p" + std::to_string(pod) + "_" + std::to_string(e);
      for (std::uint32_t h = 0; h < half; ++h) {
        sw.ports.push_back(port(h, p.host_gbps));
      }
      for (std::uint32_t a = 0; a < half; ++a) {
        sw.ports.push_back(port(half + a, p.fabric_gbps));
      }
      t.switches.push_back(std::move(sw));
    }
  }
  // Aggregation switches: ports [0, k/2) edge downlinks, [k/2, k) core
  // uplinks (port k/2 + j reaches core a*(k/2)+j).
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t a = 0; a < half; ++a) {
      SwitchConfig sw;
      sw.id = agg_id(pod, a);
      sw.name = "agg_p" + std::to_string(pod) + "_" + std::to_string(a);
      for (std::uint32_t i = 0; i < k; ++i) {
        sw.ports.push_back(port(i, p.fabric_gbps));
      }
      t.switches.push_back(std::move(sw));
    }
  }
  // Core switches: port p is the downlink into pod p.
  for (std::uint32_t a = 0; a < half; ++a) {
    for (std::uint32_t j = 0; j < half; ++j) {
      SwitchConfig sw;
      sw.id = core_id(a, j);
      sw.name = "core_" + std::to_string(a) + "_" + std::to_string(j);
      for (std::uint32_t pod = 0; pod < k; ++pod) {
        sw.ports.push_back(port(pod, p.fabric_gbps));
      }
      t.switches.push_back(std::move(sw));
    }
  }

  // Hosts: (pod, edge, slot) -> id, attached at the edge's slot port.
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t h = 0; h < half; ++h) {
        HostConfig host;
        host.id = edge_id(pod, e) * half + h;
        host.attach_switch = edge_id(pod, e);
        host.attach_port = h;
        host.ip = default_host_ip(host.id);
        t.hosts.push_back(host);
      }
    }
  }

  // Links (both directions of every wire).
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        t.links.push_back(
            {edge_id(pod, e), half + a, agg_id(pod, a), p.link_delay_ns});
        t.links.push_back(
            {agg_id(pod, a), e, edge_id(pod, e), p.link_delay_ns});
      }
    }
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t j = 0; j < half; ++j) {
        t.links.push_back(
            {agg_id(pod, a), half + j, core_id(a, j), p.link_delay_ns});
        t.links.push_back(
            {core_id(a, j), pod, agg_id(pod, a), p.link_delay_ns});
      }
    }
  }

  // Routes: up paths ECMP, down paths deterministic.
  std::vector<std::uint32_t> up_ports;
  for (std::uint32_t i = 0; i < half; ++i) up_ports.push_back(half + i);
  const std::uint32_t num_hosts = num_edges * half;
  for (std::uint32_t d = 0; d < num_hosts; ++d) {
    const std::uint32_t d_edge = d / half;
    const std::uint32_t d_pod = d_edge / half;
    const std::uint32_t d_edge_in_pod = d_edge % half;
    for (std::uint32_t pod = 0; pod < k; ++pod) {
      for (std::uint32_t e = 0; e < half; ++e) {
        RouteEntry r;
        r.sw = edge_id(pod, e);
        r.dst_host = d;
        r.ports = (r.sw == d_edge) ? std::vector<std::uint32_t>{d % half}
                                   : up_ports;
        t.routes.push_back(std::move(r));
      }
      for (std::uint32_t a = 0; a < half; ++a) {
        RouteEntry r;
        r.sw = agg_id(pod, a);
        r.dst_host = d;
        r.ports = (pod == d_pod) ? std::vector<std::uint32_t>{d_edge_in_pod}
                                 : up_ports;
        t.routes.push_back(std::move(r));
      }
    }
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t j = 0; j < half; ++j) {
        t.routes.push_back({core_id(a, j), d, {d_pod}});
      }
    }
  }

  t.validate();
  return t;
}

}  // namespace pq::net
