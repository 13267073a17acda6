// VMN - Verification for Middlebox Networks.
//
// Umbrella header: pulls in the full public API. Reproduction of
// "Verifying Reachability in Networks with Mutable Datapaths"
// (Panda, Lahav, Argyraki, Sagiv, Shenker - NSDI 2017).
//
// Typical use:
//
//   vmn::encode::NetworkModel model = ...;      // topology + middleboxes
//   vmn::verify::Engine engine(model);          // inline executor
//   auto result = engine.run_one(
//       vmn::encode::Invariant::node_isolation(d, s));
//   if (result.outcome == vmn::verify::Outcome::violated) {
//     std::cout << result.counterexample->to_string(name_of);
//   }
//
//   // A whole batch, fanned out over two worker threads:
//   auto batch = vmn::verify::Engine(
//       model, {.batch = true, .jobs = 2}).run_batch(invariants);
#pragma once

#include "core/address.hpp"
#include "core/error.hpp"
#include "core/event.hpp"
#include "core/ids.hpp"
#include "core/packet.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "dataplane/headerspace.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/reach.hpp"
#include "dataplane/transfer.hpp"
#include "encode/encoder.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "encode/oracle.hpp"
#include "io/spec.hpp"
#include "logic/builder.hpp"
#include "logic/ltl.hpp"
#include "logic/printer.hpp"
#include "logic/sort.hpp"
#include "logic/term.hpp"
#include "mbox/app_firewall.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/middlebox.hpp"
#include "mbox/nat.hpp"
#include "mbox/proxy.hpp"
#include "mbox/scrubber.hpp"
#include "mbox/wan_optimizer.hpp"
#include "net/failure.hpp"
#include "net/fwd_table.hpp"
#include "net/topology.hpp"
#include "scenarios/batch.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "sim/simulator.hpp"
#include "slice/policy.hpp"
#include "slice/slice.hpp"
#include "slice/symmetry.hpp"
#include "smt/solver.hpp"
#include "verify/engine.hpp"
#include "verify/job.hpp"
#include "verify/solver_pool.hpp"
#include "verify/verifier.hpp"
