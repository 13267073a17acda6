#include "mbox/middlebox.hpp"

namespace vmn::mbox {

namespace l = vmn::logic;
namespace ltl = vmn::logic::ltl;

std::string to_string(StateScope scope) {
  switch (scope) {
    case StateScope::stateless:
      return "stateless";
    case StateScope::flow_parallel:
      return "flow-parallel";
    case StateScope::origin_agnostic:
      return "origin-agnostic";
    case StateScope::global_state:
      return "global";
  }
  return "?";
}

ltl::FormulaPtr Middlebox::received_before(AxiomContext& ctx,
                                           const l::TermPtr& p) const {
  l::TermPtr n = ctx.fresh_node("src");
  return ltl::once(ltl::exists({n}, ltl::rcv(n, ctx.self(), p)));
}

void Middlebox::emit_send_axiom(
    AxiomContext& ctx,
    const std::function<ltl::FormulaPtr(const l::TermPtr& p)>& condition) const {
  l::TermFactory& f = ctx.factory();
  l::TermPtr n = ctx.fresh_node("n");
  l::TermPtr p = ctx.fresh_packet("p");

  ltl::FormulaPtr up_and_allowed =
      ltl::and_f(ltl::not_f(ltl::fail(ctx.self())), condition(p));

  ltl::FormulaPtr rhs;
  if (failure_mode() == FailureMode::fail_open) {
    // While down, the box degenerates to a wire: any received packet may be
    // forwarded unmodified.
    ltl::FormulaPtr open_passthrough =
        ltl::and_f(ltl::fail(ctx.self()), received_before(ctx, p));
    rhs = ltl::or_f(up_and_allowed, open_passthrough);
  } else {
    rhs = up_and_allowed;
  }

  ltl::FormulaPtr axiom = ltl::implies_f(
      ltl::snd(ctx.self(), n, p),
      ltl::and_f(ltl::pred(f.eq(n, ctx.omega())), rhs));
  ctx.add_axiom(ltl::always(ctx.vocab(), {n, p}, axiom), name() + ".send");
}

}  // namespace vmn::mbox
