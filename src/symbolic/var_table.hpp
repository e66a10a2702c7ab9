// Symbolic context: a BDD manager plus a registry of finite-domain state
// variables, implementing the boolean encoding of paper §3.4 (Fig. 3): a
// variable with m possible values becomes ⌈log₂ m⌉ boolean atoms.
//
// Bit layout: each boolean *bit* k of the model owns two BDD variables —
// 2k for its current-state value and 2k+1 for its next-state value.  This
// interleaved order keeps transition-relation BDDs small (the standard
// choice in SMV-style checkers) and makes the current↔next renaming a
// single registered permutation.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"

namespace cmc::symbolic {

using VarId = int;

struct Variable {
  std::string name;
  /// Declared values in order; booleans use {"0", "1"}.
  std::vector<std::string> values;
  bool isBool = false;
  /// Model-level bit indices (bit b owns BDD vars 2b and 2b+1).
  std::vector<std::uint32_t> bits;

  std::size_t valueIndex(const std::string& value) const;
  bool hasValue(const std::string& value) const;
};

class Context {
 public:
  /// `bddCapacity` pre-sizes the manager's node arena and unique table;
  /// `bddCacheSize` the computed table.  Worker contexts importing from an
  /// elaboration snapshot pass the snapshot's node counts here so the
  /// import and the following fixpoints never rehash or grow mid-flight.
  explicit Context(std::size_t bddCapacity = 1 << 12,
                   std::size_t bddCacheSize = 1 << 14);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  bdd::Manager& mgr() noexcept { return mgr_; }
  const bdd::Manager& mgr() const noexcept { return mgr_; }

  /// Declare a boolean variable; returns its id.
  VarId addBoolVar(const std::string& name);
  /// Declare an enumerated variable with the given (non-empty) value list.
  VarId addEnumVar(const std::string& name, std::vector<std::string> values);

  /// Re-declare every variable of `src` into this (empty) context, in id
  /// order.  Variable assignment is deterministic, so ids, bit indices, and
  /// the BDD-variable layout come out identical to the source — the
  /// precondition for importing a snapshot's BDDs with bdd::Importer and
  /// having every varEq/cube/permutation built here line up with them.
  void adoptVariablesFrom(const Context& src);

  bool hasVar(const std::string& name) const;
  VarId varId(const std::string& name) const;  ///< throws ModelError if absent
  const Variable& variable(VarId id) const { return vars_.at(id); }
  std::size_t varCount() const noexcept { return vars_.size(); }
  /// Total boolean bits across all variables.
  std::size_t bitCount() const noexcept { return bitCount_; }

  // ---- Encodings ----------------------------------------------------------

  /// BDD var index of model bit b (current or next column).
  static std::uint32_t bddVarOf(std::uint32_t bit, bool next) {
    return 2 * bit + (next ? 1 : 0);
  }
  /// True iff BDD var `v` is a next-state column (inverse of bddVarOf).
  static bool isNextBddVar(std::uint32_t v) { return v % 2 == 1; }

  /// The predicate `var = value` over the current (or next) state bits.
  bdd::Bdd varEq(VarId id, const std::string& value, bool next = false);
  /// `var = value` by value index (bounds-checked).
  bdd::Bdd varEqIndex(VarId id, std::size_t valueIdx, bool next = false);
  /// Valid-encoding constraint for one variable (excludes the unused bit
  /// patterns of non-power-of-two domains).
  bdd::Bdd domain(VarId id, bool next = false);
  /// Conjoined domain constraint over several variables.
  bdd::Bdd domainAll(const std::vector<VarId>& ids, bool next = false);
  /// Frame condition: every bit of `id` keeps its value (var' = var).
  bdd::Bdd frame(VarId id);
  bdd::Bdd frameAll(const std::vector<VarId>& ids);

  /// Cube of all current (resp. next) BDD vars of the given variables; used
  /// for quantification in image/preimage.
  bdd::Bdd currentCube(const std::vector<VarId>& ids);
  bdd::Bdd nextCube(const std::vector<VarId>& ids);

  /// Permutation swapping every current bit with its next bit (involution,
  /// so one id serves both directions).  Registered lazily over the bits
  /// existing at first use; adding variables afterwards refreshes it.
  std::uint32_t swapPermutation();

  /// Permutation swapping current↔next only for the bits of `ids`, leaving
  /// every other bit in place — the partial swap a disjunctive-track
  /// preimage applies to its target.  Cached per variable set (and
  /// refreshed if variables were added since registration).
  std::uint32_t swapPermutation(const std::vector<VarId>& ids);

  /// Resolve a CTL atom text: "name" (boolean) or "name=value".
  /// Throws ModelError for unknown variables or values.
  bdd::Bdd atomBdd(const std::string& atomText, bool next = false);

  /// Names of all BDD variables ("var.bit" / "var.bit'"), for DOT output.
  std::vector<std::string> bddVarNames() const;

 private:
  VarId addVar(Variable v);

  bdd::Manager mgr_;
  std::vector<Variable> vars_;
  std::unordered_map<std::string, VarId> byName_;
  std::size_t bitCount_ = 0;

  std::uint32_t swapPermId_ = 0;
  std::size_t swapPermBits_ = 0;  ///< bit count when the perm was registered
  bool swapPermValid_ = false;

  /// Partial-swap permutation ids keyed by sorted variable set; `.second`
  /// of each value is the bit count at registration (stale ids are
  /// re-registered after the context grows).
  std::map<std::vector<VarId>, std::pair<std::uint32_t, std::size_t>>
      partialSwapIds_;
};

}  // namespace cmc::symbolic
