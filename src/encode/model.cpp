#include "encode/model.hpp"

namespace vmn::encode {

mbox::Middlebox* NetworkModel::middlebox_at(NodeId node) const {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

void NetworkModel::set_policy_class(NodeId host, PolicyClassId cls) {
  if (network_.kind(host) != net::NodeKind::host) {
    throw ModelError("policy classes apply to hosts only");
  }
  policy_[host] = cls;
}

PolicyClassId NetworkModel::policy_class(NodeId host) const {
  auto it = policy_.find(host);
  return it == policy_.end() ? PolicyClassId{0} : it->second;
}

}  // namespace vmn::encode
