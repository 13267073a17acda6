// Hash-consed first-order terms.
//
// Terms form an immutable DAG; structurally identical terms are interned by
// the owning TermFactory, so equality of TermPtr is structural equality.
// The IR is deliberately small: just what the VMN encoding needs (boolean
// connectives, equality, linear integer comparisons, uninterpreted function
// applications, and quantifiers).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/sort.hpp"

namespace vmn::logic {

class Term;
using TermPtr = std::shared_ptr<const Term>;

/// An uninterpreted function (or constant, when the domain is empty).
class FuncDecl {
 public:
  FuncDecl(std::string name, std::vector<SortPtr> domain, SortPtr range)
      : name_(std::move(name)),
        domain_(std::move(domain)),
        range_(std::move(range)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<SortPtr>& domain() const { return domain_; }
  [[nodiscard]] const SortPtr& range() const { return range_; }
  [[nodiscard]] std::size_t arity() const { return domain_.size(); }

 private:
  std::string name_;
  std::vector<SortPtr> domain_;
  SortPtr range_;
};

using FuncDeclPtr = std::shared_ptr<const FuncDecl>;

enum class TermKind : std::uint8_t {
  bool_const,
  int_const,
  enum_const,  ///< element of a finite sort (payload = element index)
  variable,    ///< named variable (free or bound by an enclosing quantifier)
  app,         ///< uninterpreted function application
  not_op,
  and_op,
  or_op,
  implies_op,
  iff_op,
  ite_op,
  eq_op,
  distinct_op,
  lt_op,
  le_op,
  add_op,
  sub_op,
  forall_op,  ///< binders in binders(), body is the single child
  exists_op,
};

/// One node of the term DAG. Construct only through TermFactory.
class Term {
 public:
  [[nodiscard]] TermKind kind() const { return kind_; }
  [[nodiscard]] const SortPtr& sort() const { return sort_; }
  [[nodiscard]] const std::vector<TermPtr>& children() const {
    return children_;
  }
  [[nodiscard]] const std::vector<TermPtr>& binders() const { return binders_; }
  [[nodiscard]] const FuncDeclPtr& decl() const { return decl_; }

  /// Payloads (meaningful per kind).
  [[nodiscard]] bool bool_value() const { return payload_ != 0; }
  [[nodiscard]] std::int64_t int_value() const { return payload_; }
  [[nodiscard]] std::size_t enum_index() const {
    return static_cast<std::size_t>(payload_);
  }
  [[nodiscard]] const std::string& var_name() const { return text_; }

  /// Unique id within the owning factory (used for hashing).
  [[nodiscard]] std::uint64_t id() const { return id_; }

  [[nodiscard]] bool is_bool() const { return sort_->is_bool(); }

 private:
  friend class TermFactory;
  Term() = default;

  TermKind kind_ = TermKind::bool_const;
  SortPtr sort_;
  std::vector<TermPtr> children_;
  std::vector<TermPtr> binders_;
  FuncDeclPtr decl_;
  std::int64_t payload_ = 0;
  std::string text_;
  std::uint64_t id_ = 0;
};

/// Creates and interns terms; owns declarations and named sorts.
///
/// All terms combined in one formula must come from the same factory.
class TermFactory {
 public:
  TermFactory() = default;
  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  // -- sorts and declarations -------------------------------------------
  /// Interns an uninterpreted sort by name.
  SortPtr uninterpreted_sort(const std::string& name);
  /// Interns a finite sort by name; element lists must agree on re-use.
  SortPtr finite_sort(const std::string& name,
                      std::vector<std::string> elements);
  /// Declares (or returns the existing) function with this signature.
  FuncDeclPtr func(const std::string& name, std::vector<SortPtr> domain,
                   SortPtr range);

  // -- leaves -------------------------------------------------------------
  TermPtr bool_val(bool v);
  TermPtr int_val(std::int64_t v);
  TermPtr enum_val(const SortPtr& sort, std::size_t index);
  /// Enum element by name; throws ModelError if absent.
  TermPtr enum_val(const SortPtr& sort, const std::string& element);
  TermPtr var(const std::string& name, const SortPtr& sort);
  /// Fresh variable with a unique suffix.
  TermPtr fresh_var(const std::string& stem, const SortPtr& sort);

  // -- applications and connectives ---------------------------------------
  TermPtr app(const FuncDeclPtr& f, std::vector<TermPtr> args);
  TermPtr not_(const TermPtr& a);
  /// N-ary conjunction; flattens nested ands, drops `true`, folds `false`.
  TermPtr and_(std::vector<TermPtr> args);
  TermPtr and_(const TermPtr& a, const TermPtr& b);
  /// N-ary disjunction; flattens nested ors, drops `false`, folds `true`.
  TermPtr or_(std::vector<TermPtr> args);
  TermPtr or_(const TermPtr& a, const TermPtr& b);
  TermPtr implies(const TermPtr& a, const TermPtr& b);
  TermPtr iff(const TermPtr& a, const TermPtr& b);
  TermPtr ite(const TermPtr& c, const TermPtr& t, const TermPtr& e);
  TermPtr eq(const TermPtr& a, const TermPtr& b);
  TermPtr neq(const TermPtr& a, const TermPtr& b);
  TermPtr distinct(std::vector<TermPtr> args);
  TermPtr lt(const TermPtr& a, const TermPtr& b);
  TermPtr le(const TermPtr& a, const TermPtr& b);
  TermPtr add(const TermPtr& a, const TermPtr& b);
  TermPtr sub(const TermPtr& a, const TermPtr& b);

  // -- quantifiers ----------------------------------------------------------
  TermPtr forall(std::vector<TermPtr> vars, const TermPtr& body);
  TermPtr exists(std::vector<TermPtr> vars, const TermPtr& body);

 private:
  TermPtr intern(Term&& t);
  static void require(bool cond, const std::string& message);

  struct Key {
    TermKind kind;
    const Sort* sort;
    const FuncDecl* decl;
    std::int64_t payload;
    std::string text;
    std::vector<std::uint64_t> child_ids;
    std::vector<std::uint64_t> binder_ids;
    /// Precomputed by intern() (a pure function of the fields above, so it
    /// is excluded from equality): the map would otherwise re-walk `text`
    /// and the id vectors on every find AND every emplace - measurable on
    /// the hot encode path, where every axiom is built through intern().
    std::size_t hash = 0;

    bool operator==(const Key& other) const {
      return kind == other.kind && sort == other.sort && decl == other.decl &&
             payload == other.payload && text == other.text &&
             child_ids == other.child_ids && binder_ids == other.binder_ids;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };

  std::unordered_map<Key, TermPtr, KeyHash> interned_;
  std::unordered_map<std::string, SortPtr> sorts_;
  std::unordered_map<std::string, FuncDeclPtr> funcs_;
  std::uint64_t next_id_ = 0;
  std::uint64_t fresh_counter_ = 0;
};

}  // namespace vmn::logic
