#include "verify/solver_pool.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace vmn::verify {

namespace {

/// An escalated retry's solver timeout, as a multiple of the session's.
constexpr std::uint64_t kEscalationTimeoutMult = 2;

}  // namespace

void SolverSession::drop_escalation() {
  esc_solver_.reset();
  esc_encoding_.reset();
}

void SolverSession::drop_warm() {
  // Each solver before the encoding whose vocabulary it translated.
  drop_escalation();
  solver_.reset();
  encoding_.reset();
  warm_model_ = nullptr;
  warm_members_.clear();
  warm_failures_ = -1;
}

void SolverSession::reset_warm() {
  drop_warm();
  owned_transfers_.reset();
}

SolverSession::WarmBound SolverSession::escalate_bind() {
  if (warm_model_ == nullptr) {
    throw Error("escalate_bind without a preceding warm_bind");
  }
  smt::SolverOptions esc = options_;
  const std::uint64_t timeout =
      static_cast<std::uint64_t>(options_.timeout_ms) * kEscalationTimeoutMult;
  esc.timeout_ms = timeout > 0xffffffffull
                       ? 0xffffffffu
                       : static_cast<std::uint32_t>(timeout);
  // Perturb the random seed: a different exploration order is frequently
  // all a borderline-unknown check needs.
  esc.seed = options_.seed ^ 0x9e3779b9u;
  dataplane::TransferCache* transfers = borrowed_transfers_;
  if (transfers == nullptr) transfers = owned_transfers_.get();
  encode::EncodeOptions eopts;
  eopts.max_failures = warm_failures_;
  eopts.transfers = transfers;
  drop_escalation();  // free before build, as in warm_bind
  esc_encoding_ = std::make_unique<encode::Encoding>(
      *warm_model_, warm_members_, eopts);
  esc_solver_ = smt::make_z3_solver(esc_encoding_->vocab(), esc);
  for (const encode::Axiom& axiom : esc_encoding_->axioms()) {
    esc_solver_->add(axiom.term);
  }
  return WarmBound{*esc_encoding_, *esc_solver_, false};
}

SolverSession::WarmBound SolverSession::warm_bind(
    const encode::NetworkModel& model, std::vector<NodeId> members,
    int max_failures) {
  // Normalize exactly like Encoding's constructor so the shape comparison
  // sees what the encoding would.
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  // A previous job's escalation retry is over; its context goes first.
  drop_escalation();
  if (warm_ && encoding_ != nullptr && warm_model_ == &model &&
      warm_failures_ == max_failures && warm_members_ == members) {
    return WarmBound{*encoding_, *solver_, true};
  }
  // Free before build: a fresh Z3 context touches 16.8 MB of tables, and
  // building it while the old one is alive doubles the session's resident
  // memory and faults in pages the old context's would have served.
  drop_warm();
  // Per-scenario transfer memo for the new encoding: the borrowed cache
  // when the owner lent one (the inline executor), else a session-owned
  // cache scoped to the model's network (the wire worker's).
  dataplane::TransferCache* transfers = borrowed_transfers_;
  if (transfers == nullptr) {
    if (owned_transfers_ == nullptr ||
        &owned_transfers_->network() != &model.network()) {
      owned_transfers_ =
          std::make_unique<dataplane::TransferCache>(model.network());
    }
    transfers = owned_transfers_.get();
  }
  encode::EncodeOptions eopts;
  eopts.max_failures = max_failures;
  eopts.transfers = transfers;
  encoding_ =
      std::make_unique<encode::Encoding>(model, std::move(members), eopts);
  warm_model_ = &model;
  warm_failures_ = max_failures;
  warm_members_ = encoding_->members();
  solver_ = smt::make_z3_solver(encoding_->vocab(), options_);
  for (const encode::Axiom& axiom : encoding_->axioms()) {
    solver_->add(axiom.term);
  }
  return WarmBound{*encoding_, *solver_, false};
}

}  // namespace vmn::verify
