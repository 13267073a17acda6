// The VMN vocabulary: the sorts and uninterpreted functions shared by every
// encoding (paper, section 3.2).
//
//   snd(from, to, p, t)  - `from` sends packet p to `to` at time t
//   rcv(from, to, p, t)  - `to` receives packet p from `from` at time t
//   fail(n, t)           - node n is down at time t
//
// Header fields and abstract packet classes are functions over the
// uninterpreted Packet sort: src, dst, src-port, dst-port, origin (for data
// isolation), and classification-oracle outputs (malicious?, app-class).
#pragma once

#include <string>
#include <vector>

#include "logic/term.hpp"

namespace vmn::logic {

/// Builds and holds the common VMN vocabulary over a given node list.
class Vocab {
 public:
  /// `node_names` become the elements of the finite Node sort; the caller
  /// is responsible for including the pseudo-node Omega if needed.
  Vocab(TermFactory& factory, const std::vector<std::string>& node_names);

  [[nodiscard]] TermFactory& factory() const { return *factory_; }

  // Sorts.
  [[nodiscard]] const SortPtr& node_sort() const { return node_sort_; }
  [[nodiscard]] const SortPtr& packet_sort() const { return packet_sort_; }
  [[nodiscard]] const SortPtr& addr_sort() const { return addr_sort_; }

  // Event relations.
  [[nodiscard]] const FuncDeclPtr& snd() const { return snd_; }
  [[nodiscard]] const FuncDeclPtr& rcv() const { return rcv_; }
  [[nodiscard]] const FuncDeclPtr& fail() const { return fail_; }

  // Packet header fields.
  [[nodiscard]] const FuncDeclPtr& src() const { return src_; }
  [[nodiscard]] const FuncDeclPtr& dst() const { return dst_; }
  [[nodiscard]] const FuncDeclPtr& src_port() const { return src_port_; }
  [[nodiscard]] const FuncDeclPtr& dst_port() const { return dst_port_; }

  // Classification-oracle functions (abstract packet classes).
  [[nodiscard]] const FuncDeclPtr& origin() const { return origin_; }
  [[nodiscard]] const FuncDeclPtr& malicious() const { return malicious_; }
  [[nodiscard]] const FuncDeclPtr& app_class() const { return app_class_; }

  /// The node constant for element index i of the Node sort.
  [[nodiscard]] TermPtr node_const(std::size_t index) const;
  /// The node constant by name; throws ModelError if absent.
  [[nodiscard]] TermPtr node_const(const std::string& name) const;

  // Shorthand term builders.
  [[nodiscard]] TermPtr snd_at(const TermPtr& from, const TermPtr& to,
                               const TermPtr& p, const TermPtr& t) const;
  [[nodiscard]] TermPtr rcv_at(const TermPtr& from, const TermPtr& to,
                               const TermPtr& p, const TermPtr& t) const;
  [[nodiscard]] TermPtr fail_at(const TermPtr& n, const TermPtr& t) const;
  [[nodiscard]] TermPtr src_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr dst_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr src_port_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr dst_port_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr origin_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr malicious_of(const TermPtr& p) const;
  [[nodiscard]] TermPtr app_class_of(const TermPtr& p) const;

 private:
  TermFactory* factory_;
  SortPtr node_sort_;
  SortPtr packet_sort_;
  SortPtr addr_sort_;
  FuncDeclPtr snd_, rcv_, fail_;
  FuncDeclPtr src_, dst_, src_port_, dst_port_;
  FuncDeclPtr origin_, malicious_, app_class_;
};

}  // namespace vmn::logic
