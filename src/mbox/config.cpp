#include "mbox/config.hpp"

#include <cstddef>
#include <map>

namespace vmn::mbox {

std::string to_string(CellKind kind) {
  switch (kind) {
    case CellKind::addr:
      return "addr";
    case CellKind::prefix:
      return "prefix";
    case CellKind::enum_value:
      return "enum";
    case CellKind::integer:
      return "int";
    case CellKind::flag:
      return "flag";
  }
  return "?";
}

ConfigCell ConfigCell::make_addr(std::string column, Address a) {
  ConfigCell c;
  c.kind = CellKind::addr;
  c.column = std::move(column);
  c.addr = a;
  return c;
}

ConfigCell ConfigCell::make_prefix(std::string column, Prefix p) {
  ConfigCell c;
  c.kind = CellKind::prefix;
  c.column = std::move(column);
  c.prefix = p;
  return c;
}

ConfigCell ConfigCell::make_enum(std::string column, std::string value) {
  ConfigCell c;
  c.kind = CellKind::enum_value;
  c.column = std::move(column);
  c.sym = std::move(value);
  return c;
}

ConfigCell ConfigCell::make_int(std::string column, std::int64_t value) {
  ConfigCell c;
  c.kind = CellKind::integer;
  c.column = std::move(column);
  c.num = value;
  return c;
}

ConfigCell ConfigCell::make_flag(std::string column, bool value) {
  ConfigCell c;
  c.kind = CellKind::flag;
  c.column = std::move(column);
  c.on = value;
  return c;
}

bool ConfigCell::matches(Address a) const {
  switch (kind) {
    case CellKind::addr:
      return addr == a;
    case CellKind::prefix:
      return prefix.contains(a);
    default:
      return false;
  }
}

bool ConfigRelation::admits(Address lhs, Address rhs) const {
  for (const ConfigRow& row : rows) {
    if (row.cells.size() != 3) continue;  // malformed rows never match
    if (row.cells[0].matches(lhs) && row.cells[1].matches(rhs)) {
      return row.cells[2].on;
    }
  }
  return default_admit;
}

namespace {

/// Projection rendering of one row_list cell. Labeled cells render
/// "column:value;"; unlabeled cells render the bare value (the proxy's
/// single self-address, the IDPS's bare mode token), integers with the
/// legacy "N," spelling.
void project_cell(const ConfigCell& cell, const std::vector<Address>& relevant,
                  const std::function<std::string(Address)>& token,
                  std::string& out) {
  switch (cell.kind) {
    case CellKind::addr:
      if (cell.column.empty()) {
        out += token(cell.addr);
      } else {
        out += cell.column + ":" + token(cell.addr) + ";";
      }
      break;
    case CellKind::prefix:
      // The axioms only ever see prefix *membership* of relevant addresses,
      // so that is all the projection records - nothing of the base bits.
      for (Address a : relevant) {
        if (!cell.prefix.contains(a)) continue;
        if (cell.column.empty()) {
          out += token(a) + ";";
        } else {
          out += cell.column + ":" + token(a) + ";";
        }
      }
      break;
    case CellKind::enum_value:
      if (cell.column.empty()) {
        out += cell.sym;
      } else {
        out += cell.column + ":" + cell.sym + ";";
      }
      break;
    case CellKind::integer:
      if (cell.column.empty()) {
        out += std::to_string(cell.num) + ",";
      } else {
        out += cell.column + ":" + std::to_string(cell.num) + ";";
      }
      break;
    case CellKind::flag:
      out += cell.column + (cell.on ? "+" : "-") + ";";
      break;
  }
}

[[nodiscard]] bool row_has_matchers(const ConfigRow& row) {
  for (const ConfigCell& cell : row.cells) {
    if (cell.kind == CellKind::addr || cell.kind == CellKind::prefix) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool row_mentions(const ConfigRow& row, Address a) {
  for (const ConfigCell& cell : row.cells) {
    if (cell.matches(a)) return true;
  }
  return false;
}

/// Canonical names for the address content of the rows a given address
/// matches: every distinct addr/prefix value gets the index of its first
/// appearance across that matched subset. Relative to the matched subset -
/// not the whole relation - so two addresses whose matched rows correspond
/// under a renaming fingerprint identically even within ONE configuration:
/// an enterprise firewall's public subnets all match "allow external<->me"
/// rows and collapse into one policy class, exactly as the pre-descriptor
/// content-based fingerprints arranged. Within the subset the ids still
/// carry each address's own join structure (two matched rows naming the
/// same peer vs naming two different peers render differently).
///
/// What the ids deliberately do NOT carry is the join structure BETWEEN
/// two slice addresses (does x's deny row name y's group, or a different
/// one?). That is pairwise information and lives where pairs live: each
/// box's encoding projection renders the relevant x relevant admit matrix
/// the axioms compile, and the problem key and shape_bijection compare
/// exactly that (the diagnostics slice key also refines over it: each
/// admitted pair is a config-pair vertex of its problem graph,
/// slice/symmetry.cpp).
std::map<std::string, std::size_t> occurrence_ids(const ConfigRelation& rel,
                                                  Address a) {
  std::map<std::string, std::size_t> ids;
  for (const ConfigRow& row : rel.rows) {
    if (!row_has_matchers(row) || !row_mentions(row, a)) continue;
    for (const ConfigCell& cell : row.cells) {
      if (cell.kind != CellKind::addr && cell.kind != CellKind::prefix) {
        continue;
      }
      const std::string key = cell.kind == CellKind::addr
                                  ? "a" + cell.addr.to_string()
                                  : "p" + cell.prefix.to_string();
      ids.emplace(key, ids.size());
    }
  }
  return ids;
}

std::size_t occurrence_id(const std::map<std::string, std::size_t>& ids,
                          const ConfigCell& cell) {
  const std::string key = cell.kind == CellKind::addr
                              ? "a" + cell.addr.to_string()
                              : "p" + cell.prefix.to_string();
  return ids.at(key);
}

/// Fingerprint rendering of one cell relative to the queried address:
/// matched content is marked "@", peer content "'", address content is
/// named by its occurrence id (and, for prefixes, its length) - never by
/// its bits - and value cells render as in the projection.
void fingerprint_cell(const ConfigCell& cell, Address a,
                      const std::map<std::string, std::size_t>& ids,
                      std::string& out) {
  switch (cell.kind) {
    case CellKind::addr:
      out += cell.column + "#" + std::to_string(occurrence_id(ids, cell)) +
             (cell.addr == a ? "@" : "'");
      break;
    case CellKind::prefix:
      out += cell.column + "/" + std::to_string(cell.prefix.length()) + "#" +
             std::to_string(occurrence_id(ids, cell)) +
             (cell.prefix.contains(a) ? "@" : "'");
      break;
    case CellKind::enum_value:
      out += cell.column.empty() ? cell.sym : cell.column + ":" + cell.sym;
      break;
    case CellKind::integer:
      out += cell.column.empty()
                 ? std::to_string(cell.num) + ","
                 : cell.column + ":" + std::to_string(cell.num);
      break;
    case CellKind::flag:
      out += cell.column + (cell.on ? "+" : "-");
      break;
  }
}

}  // namespace

std::string render_projection(
    const ConfigRelations& rels, const std::vector<Address>& relevant,
    const std::function<std::string(Address)>& token) {
  std::string out;
  for (const ConfigRelation& rel : rels.relations) {
    if (!rel.render_tag.empty()) out += rel.render_tag + "[";
    if (rel.semantics == RelationSemantics::pair_match) {
      // The admitted-pair matrix over the relevant set is everything the
      // axioms compile from a first-match table (acl_term and friends), so
      // the matrix IS the projection - regardless of how the rows spell
      // their prefixes.
      for (Address lhs : relevant) {
        for (Address rhs : relevant) {
          if (rel.admits(lhs, rhs)) {
            out += token(lhs) + rel.pair_sep + token(rhs) + ";";
          }
        }
      }
    } else {
      for (const ConfigRow& row : rel.rows) {
        for (const ConfigCell& cell : row.cells) {
          project_cell(cell, relevant, token, out);
        }
      }
    }
    if (!rel.render_tag.empty()) out += "]";
  }
  return out;
}

std::string render_fingerprint(const ConfigRelations& rels, Address a) {
  std::string fp;
  for (const ConfigRelation& rel : rels.relations) {
    const std::map<std::string, std::size_t> ids = occurrence_ids(rel, a);
    for (std::size_t r = 0; r < rel.rows.size(); ++r) {
      const ConfigRow& row = rel.rows[r];
      if (!row_has_matchers(row)) {
        // Address-free row: a global knob, rendered identically for every
        // address (the IDPS mode, an app-firewall's class list).
        for (const ConfigCell& cell : row.cells) {
          fingerprint_cell(cell, a, ids, fp);
        }
        continue;
      }
      if (!row_mentions(row, a)) continue;
      fp += rel.name + ".";
      // pair_match rows are content-named first-match entries (their cells'
      // occurrence ids carry the join structure), so a renamed-isomorphic
      // table fingerprints alike without a row index. row_list rows are
      // positional configuration - a load balancer's backend 0 is not its
      // backend 1 - and keep theirs.
      if (rel.semantics == RelationSemantics::row_list) {
        fp += std::to_string(r) + ":";
      }
      for (const ConfigCell& cell : row.cells) {
        fingerprint_cell(cell, a, ids, fp);
      }
      fp += ";";
    }
    if (rel.semantics == RelationSemantics::pair_match) {
      // The default action is an address-free knob of the table.
      fp += rel.name + ".*" + (rel.default_admit ? "+" : "-");
    }
  }
  return fp;
}

namespace {

/// Token-projected membership of a prefix over a relevant set, as one
/// string (token order follows the relevant list, which arrives in
/// corresponding order on both sides of a diff).
std::string prefix_members(const Prefix& p,
                           const std::vector<Address>& relevant,
                           const std::function<std::string(Address)>& token) {
  std::string out;
  for (Address a : relevant) {
    if (p.contains(a)) out += token(a) + ";";
  }
  return out;
}

}  // namespace

std::string diff_config(const std::string& box_type, const ConfigRelations& a,
                        const ConfigRelations& b,
                        const std::vector<Address>& relevant_a,
                        const std::function<std::string(Address)>& token_a,
                        const std::vector<Address>& relevant_b,
                        const std::function<std::string(Address)>& token_b) {
  if (a.relations.size() != b.relations.size()) {
    return box_type + ": " + std::to_string(a.relations.size()) +
           " relations vs " + std::to_string(b.relations.size());
  }
  for (std::size_t i = 0; i < a.relations.size(); ++i) {
    const ConfigRelation& ra = a.relations[i];
    const ConfigRelation& rb = b.relations[i];
    const std::string where = box_type + "." + ra.name;
    if (ra.name != rb.name || ra.semantics != rb.semantics) {
      return box_type + ": relation " + ra.name + " vs " + rb.name;
    }
    if (ra.semantics == RelationSemantics::pair_match &&
        ra.default_admit != rb.default_admit) {
      return where + ": default " + (ra.default_admit ? "allow" : "deny") +
             " vs " + (rb.default_admit ? "allow" : "deny");
    }
    if (ra.rows.size() != rb.rows.size()) {
      return where + ": " + std::to_string(ra.rows.size()) + " rows vs " +
             std::to_string(rb.rows.size());
    }
    for (std::size_t r = 0; r < ra.rows.size(); ++r) {
      const ConfigRow& rowa = ra.rows[r];
      const ConfigRow& rowb = rb.rows[r];
      const std::string at = where + " row " + std::to_string(r) + ": ";
      if (rowa.cells.size() != rowb.cells.size()) {
        return at + std::to_string(rowa.cells.size()) + " cells vs " +
               std::to_string(rowb.cells.size());
      }
      for (std::size_t c = 0; c < rowa.cells.size(); ++c) {
        const ConfigCell& ca = rowa.cells[c];
        const ConfigCell& cb = rowb.cells[c];
        const std::string label =
            ca.column.empty() ? "cell " + std::to_string(c) : ca.column;
        if (ca.kind != cb.kind || ca.column != cb.column) {
          return at + label + " " + to_string(ca.kind) + " vs " +
                 (cb.column.empty() ? "cell" : cb.column) + " " +
                 to_string(cb.kind);
        }
        switch (ca.kind) {
          case CellKind::addr:
            if (token_a(ca.addr) != token_b(cb.addr)) {
              return at + label + " addr maps differently under the slice "
                          "bijection";
            }
            break;
          case CellKind::prefix:
            if (ca.prefix.length() != cb.prefix.length()) {
              return at + label + " prefix /" +
                     std::to_string(ca.prefix.length()) + " vs /" +
                     std::to_string(cb.prefix.length());
            }
            if (prefix_members(ca.prefix, relevant_a, token_a) !=
                prefix_members(cb.prefix, relevant_b, token_b)) {
              return at + label + " prefix /" +
                     std::to_string(ca.prefix.length()) +
                     " covers different slice addresses";
            }
            break;
          case CellKind::enum_value:
            if (ca.sym != cb.sym) {
              return at + label + " " + ca.sym + " vs " + cb.sym;
            }
            break;
          case CellKind::integer:
            if (ca.num != cb.num) {
              return at + label + " " + std::to_string(ca.num) + " vs " +
                     std::to_string(cb.num);
            }
            break;
          case CellKind::flag:
            if (ca.on != cb.on) {
              return at + label + (ca.on ? " allow" : " deny") + " vs" +
                     (cb.on ? " allow" : " deny");
            }
            break;
        }
      }
    }
  }
  return {};
}

}  // namespace vmn::mbox
