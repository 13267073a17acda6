// Shared test fixtures: small networks with one or two middleboxes between
// two (or more) hosts, used by the encoder/verifier/simulator suites, and
// per-executor Engine options for the engine suites.
#pragma once

#include <memory>
#include <string_view>

#include "encode/model.hpp"
#include "net/topology.hpp"
#include "verify/engine.hpp"

namespace vmn::test {

/// Engine options for one executor by name - "inline" (no pool) or
/// "process" (`jobs` forked workers, no worker command) - under the solver
/// seed the engine suites pin.
inline verify::EngineOptions executor_options(std::string_view executor,
                                              std::size_t jobs = 2) {
  verify::EngineOptions opts;
  opts.verify.solver.seed = 7;
  if (executor == "process") {
    opts.batch = true;
    opts.jobs = jobs;
  }
  return opts;
}

/// Hosts a and b on either side of a single middlebox `m`:
///
///   a --- s1 --- s2 --- b     with all a<->b traffic chained through m on s1.
///
/// Addresses: a = 10.0.0.1, b = 10.0.1.1.
struct OneBoxNet {
  encode::NetworkModel model;
  NodeId a, b, sw1, sw2;
  NodeId mbox;

  static constexpr Address addr_a() { return Address::of(10, 0, 0, 1); }
  static constexpr Address addr_b() { return Address::of(10, 0, 1, 1); }

  template <typename Box>
  static OneBoxNet make(std::unique_ptr<Box> box) {
    OneBoxNet n;
    net::Network& net = n.model.network();
    n.a = net.add_host("a", addr_a());
    n.b = net.add_host("b", addr_b());
    auto& m = n.model.add_middlebox(std::move(box));
    n.mbox = m.node();
    n.sw1 = net.add_switch("s1");
    n.sw2 = net.add_switch("s2");
    net.add_link(n.a, n.sw1);
    net.add_link(n.mbox, n.sw1);
    net.add_link(n.sw1, n.sw2);
    net.add_link(n.b, n.sw2);

    const Prefix pa = Prefix::host(addr_a());
    const Prefix pb = Prefix::host(addr_b());
    // Both directions chain through the middlebox at s1.
    net.table(n.sw1).add(pa, n.a);
    net.table(n.sw1).add_from(n.a, pb, n.mbox);
    net.table(n.sw1).add_from(n.mbox, pb, n.sw2);
    net.table(n.sw1).add_from(n.sw2, pa, n.mbox);
    net.table(n.sw1).add_from(n.mbox, pa, n.a);
    net.table(n.sw2).add(pb, n.b);
    net.table(n.sw2).add(pa, n.sw1);
    return n;
  }
};

}  // namespace vmn::test
