// Backend-independent view of a satisfying model: the concrete events and
// packets witnessing an invariant violation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/event.hpp"

namespace vmn::smt {

/// A packet as valued by the solver. Field values are raw integers; the
/// verifier maps them back to addresses/hosts.
struct ModelPacket {
  std::string label;  ///< solver-internal packet name (e.g. "Packet!val!0")
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t src_port = 0;
  std::int64_t dst_port = 0;
  std::optional<std::int64_t> origin;
  bool malicious = false;
  std::int64_t app_class = 0;
};

/// One event atom valued true in the model. Node fields are indices into
/// the Node enumeration sort; packet is an index into SmtModel::packets.
struct ModelEvent {
  EventKind kind = EventKind::send;
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t packet = 0;  ///< unused for fail events
  std::int64_t time = 0;

  friend bool operator==(const ModelEvent&, const ModelEvent&) = default;
};

/// The extracted model. `events` holds, for each event relation and each
/// (from, to, packet), the earliest time the relation holds.
struct SmtModel {
  std::vector<ModelPacket> packets;
  std::vector<ModelEvent> events;
  /// Relations whose interpretation the backend's decoder could not read,
  /// so that it fell back to evaluating every ground atom. Diagnostics
  /// only: the events are the same either way.
  std::vector<EventKind> dense_fallbacks;
};

}  // namespace vmn::smt
