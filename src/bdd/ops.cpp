// Core BDD operations: ITE, quantification, relational product, renaming,
// model counting and inspection.  All recursion is structural over canonical
// nodes and memoized through the manager's computed table.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bdd/manager.hpp"

namespace cmc::bdd {

namespace {

// Computed-table operation codes.  Permutations encode their id into the
// third key slot, so a single code suffices for all of them.
enum Op : std::uint32_t {
  kOpIte = 1,
  kOpExists = 2,
  kOpAndExists = 3,
  kOpPermute = 4,
};

}  // namespace

// ---------------------------------------------------------------------------
// Bdd operator sugar
// ---------------------------------------------------------------------------

Bdd Bdd::operator&(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->andOp(*this, rhs);
}

Bdd Bdd::operator|(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->orOp(*this, rhs);
}

Bdd Bdd::operator^(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->xorOp(*this, rhs);
}

Bdd Bdd::operator!() const {
  CMC_ASSERT(!isNull());
  return mgr_->notOp(*this);
}

Bdd Bdd::implies(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(*this, rhs, mgr_->bddTrue());
}

Bdd Bdd::iff(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(*this, rhs, mgr_->notOp(rhs));
}

Bdd Bdd::diff(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(rhs, mgr_->bddFalse(), *this);
}

bool Bdd::subsetOf(const Bdd& rhs) const {
  return diff(rhs).isFalse();
}

// ---------------------------------------------------------------------------
// ITE and derived connectives
// ---------------------------------------------------------------------------

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  CMC_ASSERT(!f.isNull() && !g.isNull() && !h.isNull());
  maybeGc();
  return Bdd(this, iteRec(f.index(), g.index(), h.index()));
}

Bdd Manager::andOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), g.index(), kFalseNode));
}

Bdd Manager::orOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), kTrueNode, g.index()));
}

Bdd Manager::xorOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  NodeIndex ng = iteRec(g.index(), kFalseNode, kTrueNode);
  return Bdd(this, iteRec(f.index(), ng, g.index()));
}

Bdd Manager::notOp(const Bdd& f) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), kFalseNode, kTrueNode));
}

NodeIndex Manager::iteRec(NodeIndex f, NodeIndex g, NodeIndex h) {
  // Terminal cases.
  if (f == kTrueNode) return g;
  if (f == kFalseNode) return h;
  if (g == h) return g;
  if (g == kTrueNode && h == kFalseNode) return f;

  NodeIndex cached;
  if (cacheLookup(kOpIte, f, g, h, &cached)) return cached;

  const std::uint32_t lf = levelOf(f);
  const std::uint32_t lg = levelOf(g);
  const std::uint32_t lh = levelOf(h);
  const std::uint32_t top = std::min({lf, lg, lh});

  const NodeIndex f0 = lf == top ? nodes_[f].low : f;
  const NodeIndex f1 = lf == top ? nodes_[f].high : f;
  const NodeIndex g0 = lg == top ? nodes_[g].low : g;
  const NodeIndex g1 = lg == top ? nodes_[g].high : g;
  const NodeIndex h0 = lh == top ? nodes_[h].low : h;
  const NodeIndex h1 = lh == top ? nodes_[h].high : h;

  const NodeIndex low = iteRec(f0, g0, h0);
  const NodeIndex high = iteRec(f1, g1, h1);
  const NodeIndex result = mk(levelToVar_[top], low, high);
  cacheInsert(kOpIte, f, g, h, result);
  return result;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !cube.isNull());
  maybeGc();
  return Bdd(this, existsRec(f.index(), cube.index()));
}

Bdd Manager::forall(const Bdd& f, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !cube.isNull());
  maybeGc();
  NodeIndex nf = iteRec(f.index(), kFalseNode, kTrueNode);
  NodeIndex ex = existsRec(nf, cube.index());
  return Bdd(this, iteRec(ex, kFalseNode, kTrueNode));
}

NodeIndex Manager::existsRec(NodeIndex f, NodeIndex cube) {
  if (f == kTrueNode || f == kFalseNode) return f;
  // Skip quantified variables above f's top variable.
  while (cube != kTrueNode && levelOf(cube) < levelOf(f)) {
    cube = nodes_[cube].high;
  }
  if (cube == kTrueNode) return f;

  NodeIndex cached;
  if (cacheLookup(kOpExists, f, cube, 0, &cached)) return cached;

  // Copy the fields out: the recursive calls may grow (reallocate) nodes_.
  const std::uint32_t var = nodes_[f].var;
  const NodeIndex f0 = nodes_[f].low;
  const NodeIndex f1 = nodes_[f].high;
  NodeIndex result;
  if (var == nodes_[cube].var) {
    const NodeIndex rest = nodes_[cube].high;
    const NodeIndex low = existsRec(f0, rest);
    if (low == kTrueNode) {
      result = kTrueNode;  // early cutoff: or(true, _) == true
    } else {
      const NodeIndex high = existsRec(f1, rest);
      result = iteRec(low, kTrueNode, high);
    }
  } else {
    const NodeIndex low = existsRec(f0, cube);
    const NodeIndex high = existsRec(f1, cube);
    result = mk(var, low, high);
  }
  cacheInsert(kOpExists, f, cube, 0, result);
  return result;
}

Bdd Manager::andExists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !g.isNull() && !cube.isNull());
  maybeGc();
  return Bdd(this, andExistsRec(f.index(), g.index(), cube.index()));
}

NodeIndex Manager::andExistsRec(NodeIndex f, NodeIndex g, NodeIndex cube) {
  if (f == kFalseNode || g == kFalseNode) return kFalseNode;
  if (f == kTrueNode && g == kTrueNode) return kTrueNode;
  if (cube == kTrueNode) return iteRec(f, g, kFalseNode);
  if (f == kTrueNode) return existsRec(g, cube);
  if (g == kTrueNode) return existsRec(f, cube);

  const std::uint32_t top = std::min(levelOf(f), levelOf(g));
  while (cube != kTrueNode && levelOf(cube) < top) {
    cube = nodes_[cube].high;
  }
  if (cube == kTrueNode) return iteRec(f, g, kFalseNode);

  NodeIndex cached;
  if (cacheLookup(kOpAndExists, f, g, cube, &cached)) return cached;

  const NodeIndex f0 = levelOf(f) == top ? nodes_[f].low : f;
  const NodeIndex f1 = levelOf(f) == top ? nodes_[f].high : f;
  const NodeIndex g0 = levelOf(g) == top ? nodes_[g].low : g;
  const NodeIndex g1 = levelOf(g) == top ? nodes_[g].high : g;

  NodeIndex result;
  if (levelOf(cube) == top) {
    const NodeIndex rest = nodes_[cube].high;
    const NodeIndex low = andExistsRec(f0, g0, rest);
    if (low == kTrueNode) {
      result = kTrueNode;
    } else {
      const NodeIndex high = andExistsRec(f1, g1, rest);
      result = iteRec(low, kTrueNode, high);
    }
  } else {
    result = mk(levelToVar_[top], andExistsRec(f0, g0, cube),
                andExistsRec(f1, g1, cube));
  }
  cacheInsert(kOpAndExists, f, g, cube, result);
  return result;
}

// ---------------------------------------------------------------------------
// Variable renaming
// ---------------------------------------------------------------------------

std::uint32_t Manager::registerPermutation(std::vector<std::uint32_t> perm) {
  for (std::uint32_t v : perm) ensureVars(v + 1);
  permutations_.push_back(std::move(perm));
  return static_cast<std::uint32_t>(permutations_.size() - 1);
}

Bdd Manager::permute(const Bdd& f, std::uint32_t permId) {
  CMC_ASSERT(!f.isNull() && permId < permutations_.size());
  maybeGc();
  return Bdd(this, permuteRec(f.index(), permId));
}

NodeIndex Manager::permuteRec(NodeIndex f, std::uint32_t permId) {
  if (f == kTrueNode || f == kFalseNode) return f;
  NodeIndex cached;
  if (cacheLookup(kOpPermute, f, permId, 0, &cached)) return cached;

  // Copy the fields out: the recursive calls may grow (reallocate) nodes_.
  const std::uint32_t var = nodes_[f].var;
  const NodeIndex f0 = nodes_[f].low;
  const NodeIndex f1 = nodes_[f].high;
  const std::vector<std::uint32_t>& perm = permutations_[permId];
  const std::uint32_t target = var < perm.size() ? perm[var] : var;

  const NodeIndex low = permuteRec(f0, permId);
  const NodeIndex high = permuteRec(f1, permId);
  // The permuted variable may land out of order relative to low/high, so
  // rebuild with ITE on the renamed variable rather than mk().
  const NodeIndex lit = mk(target, kFalseNode, kTrueNode);
  const NodeIndex result = iteRec(lit, high, low);
  cacheInsert(kOpPermute, f, permId, 0, result);
  return result;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

std::uint64_t Manager::dagSize(const Bdd& f) const {
  return dagSize(std::vector<Bdd>{f});
}

std::uint64_t Manager::dagSize(const std::vector<Bdd>& fs) const {
  std::vector<NodeIndex> roots;
  roots.reserve(fs.size());
  for (const Bdd& f : fs) {
    if (!f.isNull()) roots.push_back(f.index());
  }
  return reachable(roots.data(), roots.size()).size();
}

const std::vector<NodeIndex>& Manager::reachable(const NodeIndex* roots,
                                                 std::size_t count) const {
  // Scratch-marks walk: each edge costs a bit test, an order of magnitude
  // cheaper than hashing every visited node, and only the bits this walk
  // set are cleared again, so a small DAG in a large arena costs its own
  // size.  dagSize sits on the engine chooser's probe path and support on
  // every conjunct append and every partitioned preimage.  Uses the same
  // mutable scratch as GC, so the usual manager rule holds: not
  // concurrently callable (see the snapshot-sharing contract).
  if (marks_.size() < nodes_.size()) marks_.resize(nodes_.size(), false);
  walk_.clear();
  for (std::size_t r = 0; r < count; ++r) {
    if (roots[r] >= 2 && !marks_[roots[r]]) {
      marks_[roots[r]] = true;
      walk_.push_back(roots[r]);
    }
  }
  // walk_ doubles as the worklist: everything before k is expanded.
  for (std::size_t k = 0; k < walk_.size(); ++k) {
    const Node& n = nodes_[walk_[k]];
    if (n.low >= 2 && !marks_[n.low]) {
      marks_[n.low] = true;
      walk_.push_back(n.low);
    }
    if (n.high >= 2 && !marks_[n.high]) {
      marks_[n.high] = true;
      walk_.push_back(n.high);
    }
  }
  for (NodeIndex i : walk_) marks_[i] = false;
  return walk_;
}

std::vector<std::uint32_t> Manager::support(const Bdd& f) const {
  if (f.isNull()) return {};
  const NodeIndex root = f.index();
  if (varSeen_.size() < numVars_) varSeen_.resize(numVars_, false);
  std::vector<std::uint32_t> out;
  for (NodeIndex i : reachable(&root, 1)) {
    const std::uint32_t var = nodes_[i].var;
    if (!varSeen_[var]) {
      varSeen_[var] = true;
      out.push_back(var);
    }
  }
  for (std::uint32_t var : out) varSeen_[var] = false;
  std::sort(out.begin(), out.end());
  return out;
}

double Manager::satCount(const Bdd& f, std::uint32_t nvars) const {
  CMC_ASSERT(!f.isNull());
  std::unordered_map<NodeIndex, double> memo;
  // count(i): satisfying assignments over variables strictly below level(i),
  // where level(terminal) = nvars.
  auto levelOfIdx = [&](NodeIndex i) -> std::uint32_t {
    return i < 2 ? nvars : levelOf(i);
  };
  auto rec = [&](auto&& self, NodeIndex i) -> double {
    if (i == kFalseNode) return 0.0;
    if (i == kTrueNode) return 1.0;
    auto it = memo.find(i);
    if (it != memo.end()) return it->second;
    const double cl = self(self, nodes_[i].low) *
                      std::exp2(levelOfIdx(nodes_[i].low) - levelOf(i) - 1);
    const double ch = self(self, nodes_[i].high) *
                      std::exp2(levelOfIdx(nodes_[i].high) - levelOf(i) - 1);
    const double c = cl + ch;
    memo.emplace(i, c);
    return c;
  };
  return rec(rec, f.index()) * std::exp2(levelOfIdx(f.index()));
}

std::vector<std::int8_t> Manager::pickCube(const Bdd& f) const {
  CMC_ASSERT(!f.isNull() && !f.isFalse());
  std::vector<std::int8_t> cube(numVars_, -1);
  NodeIndex i = f.index();
  while (i >= 2) {
    const Node& n = nodes_[i];
    if (n.low != kFalseNode) {
      cube[n.var] = 0;
      i = n.low;
    } else {
      cube[n.var] = 1;
      i = n.high;
    }
  }
  return cube;
}

bool Manager::eval(const Bdd& f, const std::vector<bool>& assignment) const {
  CMC_ASSERT(!f.isNull());
  NodeIndex i = f.index();
  while (i >= 2) {
    const Node& n = nodes_[i];
    CMC_ASSERT(n.var < assignment.size());
    i = assignment[n.var] ? n.high : n.low;
  }
  return i == kTrueNode;
}

}  // namespace cmc::bdd
