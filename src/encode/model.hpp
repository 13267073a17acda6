// NetworkModel: a Network plus the middlebox instances attached to it and
// the policy-class assignment of its hosts. This is the unit VMN verifies.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "mbox/middlebox.hpp"
#include "net/topology.hpp"

namespace vmn::encode {

class NetworkModel {
 public:
  NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;
  NetworkModel(NetworkModel&&) = default;
  NetworkModel& operator=(NetworkModel&&) = default;

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const net::Network& network() const { return network_; }

  /// Creates the topology node for `box`, attaches the instance to it and
  /// takes ownership. Returns a reference with the concrete type preserved.
  template <typename T>
  T& add_middlebox(std::unique_ptr<T> box) {
    NodeId node = network_.add_middlebox(box->name());
    box->attach(node);
    T& ref = *box;
    by_node_.emplace(node, box.get());
    middleboxes_.push_back(std::move(box));
    return ref;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<mbox::Middlebox>>&
  middleboxes() const {
    return middleboxes_;
  }

  /// The instance attached at `node`, or nullptr for hosts/switches.
  [[nodiscard]] mbox::Middlebox* middlebox_at(NodeId node) const;

  // -- policy classes (paper, section 4.1) ---------------------------------
  /// Hosts default to policy class 0 until assigned.
  void set_policy_class(NodeId host, PolicyClassId cls);
  [[nodiscard]] PolicyClassId policy_class(NodeId host) const;

 private:
  net::Network network_;
  std::vector<std::unique_ptr<mbox::Middlebox>> middleboxes_;
  std::unordered_map<NodeId, mbox::Middlebox*> by_node_;
  std::unordered_map<NodeId, PolicyClassId> policy_;
};

}  // namespace vmn::encode
