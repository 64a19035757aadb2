#include "txir/capture_analysis.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace cstm::txir {

namespace {

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------
// A value is a capture class plus a provenance bitset: `sites` names the
// allocation instructions (txalloc/alloca_tx) the pointer may point into.
// `sites` survives joins to kUnknown so demotion accounting can tell "lost
// the proof" from "never had one". `pub` marks values pessimized by
// site-bitset overflow: with no bit to track publication, the value is
// treated as always-published (sound).

struct AV {
  enum class Cls : std::uint8_t {
    kBottom = 0,  // no definition reached yet (optimistic initial state)
    kCaptured,
    kStack,
    kStatic,
    kPrivate,
    kUnknown,
  };
  Cls cls = Cls::kBottom;
  std::uint64_t sites = 0;
  bool pub = false;

  bool operator==(const AV&) const = default;
};

AV make_unknown() { return AV{AV::Cls::kUnknown, 0, false}; }

AV join(const AV& x, const AV& y) {
  AV r;
  r.sites = x.sites | y.sites;
  r.pub = x.pub || y.pub;
  if (x.cls == y.cls) {
    r.cls = x.cls;
  } else if (x.cls == AV::Cls::kBottom) {
    r.cls = y.cls;
  } else if (y.cls == AV::Cls::kBottom) {
    r.cls = x.cls;
  } else {
    r.cls = AV::Cls::kUnknown;  // alias merge of distinct classes
  }
  return r;
}

bool tracked(AV::Cls c) {
  return c == AV::Cls::kCaptured || c == AV::Cls::kStack;
}

constexpr int kMaxSites = 64;  // provenance bitset width; overflow degrades
                               // to an always-demoted (pub) value — sound

// ---------------------------------------------------------------------------
// Per-block dataflow state
// ---------------------------------------------------------------------------
// The full abstract state flowing along a CFG edge: the environment (one
// AV per IR value), the field cells of tracked allocation sites, and the
// set of sites that may already be published on some path reaching this
// point. Joins are pointwise; the publication set joins by union — that
// union at a merge is precisely what demotes post-merge accesses when only
// one branch published.

struct State {
  std::vector<AV> env;
  std::map<std::pair<int, std::int64_t>, AV> cells;
  std::uint64_t published = 0;
  /// False until the first predecessor state is joined in. The very first
  /// join copies wholesale; later joins treat a field cell missing on
  /// EITHER side as "never stored on that path" = unanalyzable bits, and
  /// demote it to unknown. (Values need no such rule: a value live across
  /// a merge is defined on every path by the def-dominates-use invariant.)
  bool initialized = false;

  /// Joins @p src into *this; true if anything changed (monotone).
  bool join_from(const State& src) {
    if (!initialized) {
      const bool changed = !(env == src.env) || !(cells == src.cells) ||
                           published != src.published;
      env = src.env;
      cells = src.cells;
      published = src.published;
      initialized = true;
      return changed;
    }
    bool changed = false;
    for (std::size_t i = 0; i < env.size(); ++i) {
      const AV nv = join(env[i], src.env[i]);
      if (!(nv == env[i])) {
        env[i] = nv;
        changed = true;
      }
    }
    // A cell absent from one side's map means that path never stored the
    // field: the merged field holds unanalyzable bits, so the surviving
    // value must not cross the merge intact (only its provenance sites
    // survive, for publication reachability).
    for (const auto& [key, cell] : src.cells) {
      auto it = cells.find(key);
      const AV merged = it == cells.end() ? join(make_unknown(), cell)
                                          : join(it->second, cell);
      AV& mine = it == cells.end() ? cells[key] : it->second;
      if (!(merged == mine)) {
        mine = merged;
        changed = true;
      }
    }
    for (auto& [key, cell] : cells) {
      if (src.cells.find(key) != src.cells.end()) continue;
      const AV nv = join(cell, make_unknown());
      if (!(nv == cell)) {
        cell = nv;
        changed = true;
      }
    }
    if ((published | src.published) != published) {
      published |= src.published;
      changed = true;
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// The dataflow engine
// ---------------------------------------------------------------------------
// Standard worklist iteration: IN states per block, transfer = abstract
// execution of the block body, OUT pushed along each edge after binding
// branch arguments to the target's block parameters. All lattices are
// finite (value classes × 64-bit site sets, cells keyed by sites ×
// occurring offsets) and every transfer/join is monotone, so the fixpoint
// terminates. Verdicts are recorded in one final pass over the reachable
// blocks in reverse postorder using the converged IN states.

class Engine {
 public:
  explicit Engine(const Function& f) : f_(f), cfg_(build_cfg(f)) {
    State entry_in;
    entry_in.initialized = true;  // seeded below; a loop edge back to the
                                  // entry block must JOIN, never overwrite
    entry_in.env.assign(static_cast<std::size_t>(f.next_value), AV{});
    for (ValueId p : f.params) {
      entry_in.env[static_cast<std::size_t>(p)] = make_unknown();
    }
    in_.assign(f.blocks.size(), State{});
    for (State& s : in_) {
      s.env.assign(static_cast<std::size_t>(f.next_value), AV{});
    }
    if (!f.blocks.empty()) in_[0] = std::move(entry_in);
  }

  void run() {
    if (f_.blocks.empty()) return;
    // Worklist ordered by RPO index: loop bodies converge before their
    // exits are reprocessed. Monotone joins bound the iteration count.
    // Every reachable block is seeded (a block must be processed at least
    // once even if its IN never moves past the initial bottom join — its
    // own defs still have to flow to its successors).
    std::set<int> work;
    for (int i = 0; i < static_cast<int>(cfg_.rpo.size()); ++i) {
      work.insert(i);
    }
    // Backstop against a lattice bug; the fixpoint converges far earlier.
    for (int guard = 0; guard < 100000 && !work.empty(); ++guard) {
      const int rpo_pos = *work.begin();
      work.erase(work.begin());
      const BlockId b = cfg_.rpo[static_cast<std::size_t>(rpo_pos)];
      State out = exec_block(b, in_[static_cast<std::size_t>(b)], nullptr);
      const BasicBlock& bb = f_.blocks[static_cast<std::size_t>(b)];
      for_each_edge(bb, [&](const BranchTarget& t) {
        if (!cfg_.reachable(t.block)) return;
        State edge = out;  // copy: each edge binds its own branch args
        bind_args(edge, out, t);
        if (in_[static_cast<std::size_t>(t.block)].join_from(edge)) {
          work.insert(cfg_.rpo_index[static_cast<std::size_t>(t.block)]);
        }
      });
    }
  }

  AnalysisResult result() {
    AnalysisResult res;
    for (BlockId b : cfg_.rpo) {
      (void)exec_block(b, in_[static_cast<std::size_t>(b)], &res.barriers);
    }
    return res;
  }

 private:
  template <typename Fn>
  static void for_each_edge(const BasicBlock& bb, Fn&& fn) {
    if (bb.term.op == TermOp::kBr || bb.term.op == TermOp::kBrCond) {
      fn(bb.term.then_);
    }
    if (bb.term.op == TermOp::kBrCond) fn(bb.term.els);
  }

  /// Binds the branch's arguments to the target's parameters in the edge
  /// state (reading argument values from the branching block's OUT state).
  void bind_args(State& edge, const State& out, const BranchTarget& t) const {
    const auto& params = f_.blocks[static_cast<std::size_t>(t.block)].params;
    for (std::size_t i = 0; i < params.size() && i < t.args.size(); ++i) {
      const ValueId arg = t.args[i];
      edge.env[static_cast<std::size_t>(params[i])] =
          arg == kNoValue ? make_unknown()
                          : out.env[static_cast<std::size_t>(arg)];
    }
  }

  std::uint64_t site_bit(ValueId def) {
    auto [it, inserted] = site_ids_.try_emplace(def, site_ids_.size());
    return it->second < kMaxSites ? std::uint64_t{1} << it->second : 0;
  }

  AV alloc_value(AV::Cls cls, ValueId def) {
    const std::uint64_t bit = site_bit(def);
    // Site-id overflow: no bit to track publication with, so pessimize the
    // value to always-demoted instead of risking a missed publication.
    return AV{cls, bit, bit == 0};
  }

  static AV operand(const State& st, ValueId v) {
    if (v == kNoValue) return make_unknown();
    return st.env[static_cast<std::size_t>(v)];
  }

  /// The base points at memory no shared pointer can reach (yet) on any
  /// path into this program point.
  static bool private_target(const AV& base, const State& st) {
    return tracked(base.cls) && base.sites != 0 && !base.pub &&
           (base.sites & st.published) == 0;
  }

  /// Marks every site the value may point into as published, with every
  /// site reachable from them through stored pointers. Already-published
  /// sites are walked too: a merge can leave one holding a pointer that
  /// the path which did not publish it stored there.
  static void publish_value(const AV& v, State& st) {
    std::uint64_t reach = v.sites;
    for (;;) {
      std::uint64_t next = reach;
      for (const auto& [key, cell] : st.cells) {
        if ((std::uint64_t{1} << key.first) & reach) next |= cell.sites;
      }
      if (next == reach) break;
      reach = next;
    }
    st.published |= reach;
  }

  static void cell_join(State& st, int site, std::int64_t off, const AV& v) {
    AV& cell = st.cells[{site, off}];
    cell = join(cell, v);
  }

  static AccessVerdict access_verdict(const Instr& ins, const AV& base,
                                      const State& st) {
    AccessVerdict a;
    a.site = ins.site;
    a.is_store = ins.op == Op::kStore;
    const bool lost = base.pub || (base.sites & st.published) != 0;
    switch (base.cls) {
      case AV::Cls::kCaptured:
        a.verdict = lost ? Verdict::kUnknown : Verdict::kCaptured;
        a.demoted = lost;
        break;
      case AV::Cls::kStack:
        a.verdict = lost ? Verdict::kUnknown : Verdict::kStack;
        a.demoted = lost;
        break;
      case AV::Cls::kStatic:
        a.verdict = Verdict::kStatic;  // elidable() refuses the store case
        break;
      case AV::Cls::kPrivate:
        a.verdict = Verdict::kPrivate;
        break;
      default:
        a.verdict = Verdict::kUnknown;
        // Mixed provenance (e.g. a merge of captured with a shared
        // pointer) counts as demoted: conservatism, not ignorance.
        a.demoted = base.sites != 0 || base.pub;
        break;
    }
    return a;
  }

  /// Abstract execution of one block from state @p in; returns the OUT
  /// state. With @p record set, appends one AccessVerdict per load/store.
  State exec_block(BlockId b, const State& in,
                   std::vector<AccessVerdict>* record) {
    State st = in;
    const BasicBlock& bb = f_.blocks[static_cast<std::size_t>(b)];
    for (const Instr& ins : bb.body) {
      switch (ins.op) {
        case Op::kTxAlloc:
          set_env(st, ins.dst, alloc_value(AV::Cls::kCaptured, ins.dst));
          break;
        case Op::kAllocaTx:
          set_env(st, ins.dst, alloc_value(AV::Cls::kStack, ins.dst));
          break;
        case Op::kAllocaPre:
        case Op::kUnknown:
          set_env(st, ins.dst, make_unknown());
          break;
        case Op::kStaticAddr:
          set_env(st, ins.dst, AV{AV::Cls::kStatic, 0, false});
          break;
        case Op::kPrivAddr:
          set_env(st, ins.dst, AV{AV::Cls::kPrivate, 0, false});
          break;
        case Op::kGep:
        case Op::kMove:
          set_env(st, ins.dst, operand(st, ins.a));
          break;
        case Op::kLoad: {
          const AV base = operand(st, ins.a);
          if (record != nullptr) {
            record->push_back(access_verdict(ins, base, st));
          }
          AV v = make_unknown();
          if (private_target(base, st)) {
            // Join of everything stored into the pointed-to field across
            // the sites the base may name; a field never stored through a
            // tracked pointer holds unanalyzable bits.
            v = AV{};
            for (int s = 0; s < kMaxSites; ++s) {
              if ((base.sites & (std::uint64_t{1} << s)) == 0) continue;
              auto it = st.cells.find({s, ins.offset});
              v = join(v, it == st.cells.end() ? make_unknown() : it->second);
            }
            if (v.cls == AV::Cls::kBottom) v = make_unknown();
          }
          set_env(st, ins.dst, v);
          break;
        }
        case Op::kStore: {
          const AV base = operand(st, ins.a);
          const AV val = operand(st, ins.b);
          if (record != nullptr) {
            record->push_back(access_verdict(ins, base, st));
          }
          if (base.cls == AV::Cls::kBottom) break;  // unreachable so far
          if (private_target(base, st)) {
            for (int s = 0; s < kMaxSites; ++s) {
              if ((base.sites & (std::uint64_t{1} << s)) != 0) {
                cell_join(st, s, ins.offset, val);
              }
            }
          } else if (val.cls != AV::Cls::kBottom) {
            // The stored pointer may become shared: published.
            publish_value(val, st);
            // A mixed-provenance base (merge of captured and shared) may
            // still write into a tracked site: its field must absorb the
            // value so later loads cannot resurrect a stale proof.
            for (int s = 0; s < kMaxSites; ++s) {
              if ((base.sites & (std::uint64_t{1} << s)) != 0) {
                cell_join(st, s, ins.offset, val);
              }
            }
          }
          break;
        }
        case Op::kCall:
          // A call left after inlining is opaque: the callee may publish
          // every argument. It may also store through pointers it loads
          // out of them, but every cell it could reach belongs to a site
          // published here, and a load through a published site never
          // reads a cell — so the writes need no rule of their own.
          for (ValueId a : ins.args) publish_value(operand(st, a), st);
          set_env(st, ins.dst, make_unknown());
          break;
      }
    }
    return st;
  }

  static void set_env(State& st, ValueId dst, const AV& nv) {
    if (dst == kNoValue) return;
    // Straight-line redefinition within the fixpoint: join keeps the state
    // monotone across repeated executions of the same block.
    AV& slot = st.env[static_cast<std::size_t>(dst)];
    slot = join(slot, nv);
  }

  const Function& f_;
  const Cfg cfg_;
  std::vector<State> in_;
  std::unordered_map<ValueId, std::size_t> site_ids_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AnalysisResult queries
// ---------------------------------------------------------------------------

Verdict AnalysisResult::site_verdict(const std::string& site) const {
  bool seen = false;
  Verdict v = Verdict::kUnknown;
  for (const auto& b : barriers) {
    if (b.site != site) continue;
    if (!seen) {
      v = b.verdict;
      seen = true;
    } else if (v != b.verdict) {
      return Verdict::kUnknown;
    }
  }
  return v;
}

bool AnalysisResult::site_elidable(const std::string& site) const {
  bool seen = false;
  for (const auto& b : barriers) {
    if (b.site != site) continue;
    seen = true;
    if (!b.elidable()) return false;
  }
  return seen;
}

bool AnalysisResult::site_demoted(const std::string& site) const {
  if (site_elidable(site)) return false;
  for (const auto& b : barriers) {
    if (b.site == site && b.demoted) return true;
  }
  return false;
}

AnalysisStats AnalysisResult::stats() const {
  AnalysisStats s;
  std::unordered_set<std::string> labels;
  for (const auto& b : barriers) labels.insert(b.site);
  s.sites_total = labels.size();
  for (const auto& label : labels) {
    if (site_elidable(label)) {
      ++s.proven;
    } else if (site_demoted(label)) {
      ++s.demoted;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

AnalysisResult analyze(const Function& f) {
  if (f.blocks.empty()) return AnalysisResult{};
  Engine e(f);
  e.run();
  return e.result();
}

AnalysisResult analyze(const Program& p, const std::string& entry) {
  const Function* f = p.find(entry);
  if (f == nullptr) return AnalysisResult{};
  return analyze(inline_calls(p, *f));
}

}  // namespace cstm::txir
