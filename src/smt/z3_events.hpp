// Reading the snd/rcv/fail events out of a satisfying Z3 model.
//
// Internal to the Z3 backend: z3_backend.cpp reads every sat model through
// read_events(), and the tests include this header to run the decoder and
// the dense probe on the same z3::model. No other code should include it.
//
// Z3 reports each event relation as a function interpretation: a list of
// entries over an `else` body. For the models VMN's encodings produce the
// entries are usually empty and the body is a disjunction of conjunctions
// of literals over the arguments (:var 0) .. (:var n-1):
//
//   (= (:var i) C)  (not (= (:var i) C))    C a Node constant, a Packet
//                                           of the model's universe, or
//                                           an integer (time argument)
//   (<= k (:var t)) (not (<= k (:var t)))   time bounds (the argument on
//                                           either side)
//   (= (k!N (:var i)) c)                    a model-based quantifier
//                                           instantiation projection,
//                                           evaluated over i's domain
//
// decode_events() walks those disjuncts directly; an argument a disjunct
// leaves unpinned ranges over its whole finite domain. It rejects any other
// shape, and read_events() then falls back to probe_events_dense() - an
// m.eval of every ground atom - for that relation alone.
#pragma once

#include <z3++.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/event.hpp"
#include "smt/model.hpp"
#include "smt/solver.hpp"

namespace vmn::smt::z3_events {

/// The finite domains event arguments range over in one model.
struct Domains {
  std::vector<z3::expr> nodes;      ///< Node constants, by sort index
  std::vector<z3::expr> packets;    ///< the model's Packet universe
  std::vector<std::int64_t> times;  ///< candidate times, ascending
};

/// One event relation: snd/rcv over (Node, Node, Packet, Int), or fail
/// over (Node, Int).
struct Relation {
  EventKind kind;
  z3::func_decl decl;
};

/// Integer numerals in [0, 2^20) mentioned anywhere in the model's
/// constant values and function interpretations, plus 0, ascending: the
/// only times at which an event can be read as true.
[[nodiscard]] std::vector<std::int64_t> candidate_times(const z3::model& m);

/// For every (from, to, packet) - (node, node, 0) for fail - the earliest
/// time in `domains.times` at which `relation` holds in `m`, in key order.
/// nullopt when the interpretation has a shape the decoder does not read.
[[nodiscard]] std::optional<std::vector<ModelEvent>> decode_events(
    const z3::model& m, const Relation& relation, const Domains& domains);

/// The same events, found by evaluating every ground atom of the domains
/// with model completion. Correct on any interpretation, and as slow as
/// |Node|^2 x |Packet| x |times| evaluations.
[[nodiscard]] std::vector<ModelEvent> probe_events_dense(
    const z3::model& m, const Relation& relation, const Domains& domains);

/// Appends `relation`'s events to `out.events`: decoded, or probed - and
/// recorded in `out.dense_fallbacks` - when the decoder rejects the shape.
void read_events(const z3::model& m, const Relation& relation,
                 const Domains& domains, SmtModel& out);

/// What a Z3 solver's model() reads after a sat check: the model, its
/// domains and the event relations the solver declared.
struct Snapshot {
  z3::model model;
  Domains domains;
  std::vector<Relation> relations;
};

/// The snapshot of `solver`, which must be a make_z3_solver() solver whose
/// last check() was sat.
[[nodiscard]] Snapshot snapshot(const Solver& solver);

}  // namespace vmn::smt::z3_events
