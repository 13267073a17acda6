#include "logic/builder.hpp"

namespace vmn::logic {

Vocab::Vocab(TermFactory& factory, const std::vector<std::string>& node_names)
    : factory_(&factory) {
  node_sort_ = factory.finite_sort("Node", node_names);
  packet_sort_ = factory.uninterpreted_sort("Packet");
  addr_sort_ = Sort::integer();

  const auto& b = Sort::boolean();
  const auto& i = Sort::integer();
  snd_ = factory.func("snd", {node_sort_, node_sort_, packet_sort_, i}, b);
  rcv_ = factory.func("rcv", {node_sort_, node_sort_, packet_sort_, i}, b);
  fail_ = factory.func("fail", {node_sort_, i}, b);
  src_ = factory.func("p.src", {packet_sort_}, addr_sort_);
  dst_ = factory.func("p.dst", {packet_sort_}, addr_sort_);
  src_port_ = factory.func("p.src-port", {packet_sort_}, i);
  dst_port_ = factory.func("p.dst-port", {packet_sort_}, i);
  origin_ = factory.func("p.origin", {packet_sort_}, addr_sort_);
  malicious_ = factory.func("p.malicious?", {packet_sort_}, b);
  app_class_ = factory.func("p.app-class", {packet_sort_}, i);
}

TermPtr Vocab::node_const(std::size_t index) const {
  return factory_->enum_val(node_sort_, index);
}

TermPtr Vocab::node_const(const std::string& name) const {
  return factory_->enum_val(node_sort_, name);
}

TermPtr Vocab::snd_at(const TermPtr& from, const TermPtr& to, const TermPtr& p,
                      const TermPtr& t) const {
  return factory_->app(snd_, {from, to, p, t});
}

TermPtr Vocab::rcv_at(const TermPtr& from, const TermPtr& to, const TermPtr& p,
                      const TermPtr& t) const {
  return factory_->app(rcv_, {from, to, p, t});
}

TermPtr Vocab::fail_at(const TermPtr& n, const TermPtr& t) const {
  return factory_->app(fail_, {n, t});
}

TermPtr Vocab::src_of(const TermPtr& p) const { return factory_->app(src_, {p}); }
TermPtr Vocab::dst_of(const TermPtr& p) const { return factory_->app(dst_, {p}); }
TermPtr Vocab::src_port_of(const TermPtr& p) const {
  return factory_->app(src_port_, {p});
}
TermPtr Vocab::dst_port_of(const TermPtr& p) const {
  return factory_->app(dst_port_, {p});
}
TermPtr Vocab::origin_of(const TermPtr& p) const {
  return factory_->app(origin_, {p});
}
TermPtr Vocab::malicious_of(const TermPtr& p) const {
  return factory_->app(malicious_, {p});
}
TermPtr Vocab::app_class_of(const TermPtr& p) const {
  return factory_->app(app_class_, {p});
}

}  // namespace vmn::logic
