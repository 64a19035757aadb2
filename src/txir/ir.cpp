#include "txir/ir.hpp"

#include <algorithm>
#include <sstream>

namespace cstm::txir {

// ---------------------------------------------------------------------------
// CFG construction: successors, reverse postorder, dominators, edge classes
// ---------------------------------------------------------------------------

Cfg build_cfg(const Function& f) {
  Cfg cfg;
  const std::size_t n = f.blocks.size();
  cfg.succs.assign(n, {});
  cfg.preds.assign(n, {});
  cfg.rpo_index.assign(n, -1);
  cfg.idom.assign(n, kNoBlock);
  if (n == 0) return cfg;

  auto in_range = [&](BlockId b) {
    return b >= 0 && static_cast<std::size_t>(b) < n;
  };
  for (const BasicBlock& bb : f.blocks) {
    const Terminator& t = bb.term;
    if (t.op == TermOp::kBr || t.op == TermOp::kBrCond) {
      if (in_range(t.then_.block)) {
        cfg.succs[static_cast<std::size_t>(bb.id)].push_back(t.then_.block);
      }
    }
    if (t.op == TermOp::kBrCond && in_range(t.els.block)) {
      cfg.succs[static_cast<std::size_t>(bb.id)].push_back(t.els.block);
    }
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (BlockId s : cfg.succs[b]) {
      cfg.preds[static_cast<std::size_t>(s)].push_back(
          static_cast<BlockId>(b));
    }
  }

  // Iterative DFS postorder from the entry block, then reverse.
  std::vector<std::uint8_t> state(n, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::pair<BlockId, std::size_t>> stack;
  std::vector<BlockId> postorder;
  stack.emplace_back(0, 0);
  state[0] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const auto& succ = cfg.succs[static_cast<std::size_t>(b)];
    if (next < succ.size()) {
      const BlockId s = succ[next++];
      if (state[static_cast<std::size_t>(s)] == 0) {
        state[static_cast<std::size_t>(s)] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[static_cast<std::size_t>(b)] = 2;
      postorder.push_back(b);
      stack.pop_back();
    }
  }
  cfg.rpo.assign(postorder.rbegin(), postorder.rend());
  for (std::size_t i = 0; i < cfg.rpo.size(); ++i) {
    cfg.rpo_index[static_cast<std::size_t>(cfg.rpo[i])] = static_cast<int>(i);
  }

  // Immediate dominators: Cooper-Harvey-Kennedy iteration over the RPO.
  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (cfg.rpo_index[static_cast<std::size_t>(a)] >
             cfg.rpo_index[static_cast<std::size_t>(b)]) {
        a = cfg.idom[static_cast<std::size_t>(a)];
      }
      while (cfg.rpo_index[static_cast<std::size_t>(b)] >
             cfg.rpo_index[static_cast<std::size_t>(a)]) {
        b = cfg.idom[static_cast<std::size_t>(b)];
      }
    }
    return a;
  };
  cfg.idom[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : cfg.rpo) {
      if (b == 0) continue;
      BlockId new_idom = kNoBlock;
      for (BlockId p : cfg.preds[static_cast<std::size_t>(b)]) {
        if (!cfg.reachable(p) ||
            cfg.idom[static_cast<std::size_t>(p)] == kNoBlock) {
          continue;
        }
        new_idom = new_idom == kNoBlock ? p : intersect(p, new_idom);
      }
      if (new_idom != kNoBlock &&
          cfg.idom[static_cast<std::size_t>(b)] != new_idom) {
        cfg.idom[static_cast<std::size_t>(b)] = new_idom;
        changed = true;
      }
    }
  }

  // Edge classification: retreating (rpo-backward) vs true back-edges
  // (target dominates source). A retreating edge that is not a back-edge
  // is the signature of an irreducible (multi-entry) loop.
  for (BlockId u : cfg.rpo) {
    for (BlockId v : cfg.succs[static_cast<std::size_t>(u)]) {
      if (!cfg.reachable(v)) continue;
      if (cfg.rpo_index[static_cast<std::size_t>(v)] <=
          cfg.rpo_index[static_cast<std::size_t>(u)]) {
        cfg.retreating_edges.emplace_back(u, v);
        if (cfg.dominates(v, u)) cfg.back_edges.emplace_back(u, v);
      }
    }
  }
  return cfg;
}

bool Cfg::dominates(BlockId a, BlockId b) const {
  if (!reachable(a) || !reachable(b)) return false;
  while (true) {
    if (b == a) return true;
    if (b == 0) return false;
    b = idom[static_cast<std::size_t>(b)];
  }
}

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

namespace {

struct DefPoint {
  BlockId block = kNoBlock;
  int index = 0;  // -1 = block param / function param; else body position
};

}  // namespace

std::vector<std::string> verify(const Function& f) {
  std::vector<std::string> errs;
  auto err = [&](std::string msg) {
    errs.push_back(f.name + ": " + std::move(msg));
  };
  if (f.blocks.empty()) {
    err("function has no blocks");
    return errs;
  }
  if (!f.entry().params.empty()) {
    err("entry block bb0 must not take parameters");
  }

  const std::size_t nblocks = f.blocks.size();
  auto block_name = [&](BlockId b) { return "bb" + std::to_string(b); };

  // Block ids must equal their vector index: build_cfg and the analysis
  // engine index every side table by id, so a stale/duplicated id would
  // turn into a silently wrong CFG (or an out-of-bounds access) instead
  // of a diagnostic.
  for (std::size_t i = 0; i < nblocks; ++i) {
    if (f.blocks[i].id != static_cast<BlockId>(i)) {
      err("block at index " + std::to_string(i) + " carries id " +
          std::to_string(f.blocks[i].id) + " (ids must match their index)");
    }
  }
  if (!errs.empty()) return errs;

  // Single-definition check + def points for the dominance pass.
  std::vector<DefPoint> defs;
  std::vector<bool> defined;
  const auto nvals = static_cast<std::size_t>(
      std::max<ValueId>(f.next_value, 0));
  defs.assign(nvals, DefPoint{});
  defined.assign(nvals, false);
  auto define = [&](ValueId v, BlockId b, int idx, const char* what) {
    if (v == kNoValue) return;
    if (v < 0 || static_cast<std::size_t>(v) >= nvals) {
      err(std::string(what) + " defines out-of-range value %" +
          std::to_string(v));
      return;
    }
    if (defined[static_cast<std::size_t>(v)]) {
      err(std::string(what) + " redefines value %" + std::to_string(v));
      return;
    }
    defined[static_cast<std::size_t>(v)] = true;
    defs[static_cast<std::size_t>(v)] = DefPoint{b, idx};
  };
  for (ValueId p : f.params) define(p, 0, -1, "function parameter");
  for (const BasicBlock& bb : f.blocks) {
    for (ValueId p : bb.params) {
      define(p, bb.id, -1, ("block param of " + block_name(bb.id)).c_str());
    }
    for (std::size_t i = 0; i < bb.body.size(); ++i) {
      define(bb.body[i].dst, bb.id, static_cast<int>(i),
             (block_name(bb.id) + " instruction").c_str());
    }
  }

  // Terminator structure: every block closed, targets valid, branch
  // argument arity equals the target's parameter arity.
  auto check_target = [&](const BasicBlock& bb, const BranchTarget& t,
                          const char* which) {
    if (t.block < 0 || static_cast<std::size_t>(t.block) >= nblocks) {
      err(block_name(bb.id) + " " + which + " targets nonexistent block " +
          std::to_string(t.block));
      return;
    }
    const auto& params =
        f.blocks[static_cast<std::size_t>(t.block)].params;
    if (t.args.size() != params.size()) {
      err(block_name(bb.id) + " " + which + " passes " +
          std::to_string(t.args.size()) + " args to " + block_name(t.block) +
          " which takes " + std::to_string(params.size()) + " params");
    }
  };
  for (const BasicBlock& bb : f.blocks) {
    switch (bb.term.op) {
      case TermOp::kNone:
        err(block_name(bb.id) + " is not terminated");
        break;
      case TermOp::kBr:
        check_target(bb, bb.term.then_, "br");
        break;
      case TermOp::kBrCond:
        check_target(bb, bb.term.then_, "br_cond(then)");
        check_target(bb, bb.term.els, "br_cond(else)");
        break;
      case TermOp::kRet:
        break;
    }
  }
  if (!errs.empty()) return errs;  // dominance needs a structurally sound CFG

  // Dominance of uses. Uses in a block body happen at their instruction
  // index; terminator operands (cond, ret, branch args) at body.size().
  const Cfg cfg = build_cfg(f);
  auto check_use = [&](ValueId v, BlockId b, int idx, const char* what) {
    if (v == kNoValue) return;
    if (v < 0 || static_cast<std::size_t>(v) >= nvals ||
        !defined[static_cast<std::size_t>(v)]) {
      err(block_name(b) + " " + what + " uses undefined value %" +
          std::to_string(v));
      return;
    }
    if (!cfg.reachable(b)) return;  // dead code: nothing to prove
    const DefPoint d = defs[static_cast<std::size_t>(v)];
    const bool ok = d.block == b ? d.index < idx : cfg.dominates(d.block, b);
    if (!ok) {
      err(block_name(b) + " " + what + " uses %" + std::to_string(v) +
          " which does not dominate the use");
    }
  };
  for (const BasicBlock& bb : f.blocks) {
    for (std::size_t i = 0; i < bb.body.size(); ++i) {
      const Instr& ins = bb.body[i];
      const int at = static_cast<int>(i);
      check_use(ins.a, bb.id, at, "operand");
      check_use(ins.b, bb.id, at, "operand");
      for (ValueId a : ins.args) check_use(a, bb.id, at, "call argument");
    }
    const int at = static_cast<int>(bb.body.size());
    const Terminator& t = bb.term;
    if (t.op == TermOp::kBrCond) check_use(t.cond, bb.id, at, "branch cond");
    if (t.op == TermOp::kRet) check_use(t.ret, bb.id, at, "return value");
    if (t.op == TermOp::kBr || t.op == TermOp::kBrCond) {
      for (ValueId a : t.then_.args) check_use(a, bb.id, at, "branch arg");
    }
    if (t.op == TermOp::kBrCond) {
      for (ValueId a : t.els.args) check_use(a, bb.id, at, "branch arg");
    }
  }
  return errs;
}

// ---------------------------------------------------------------------------
// Inlining: CFG splicing with continuation blocks
// ---------------------------------------------------------------------------

namespace {

class Inliner {
 public:
  Inliner(const Program& program, Function& out)
      : program_(program), out_(out) {}

  /// Copies @p src into out_. @p vmap maps src value ids to out value ids;
  /// function/block params must be pre-seeded or are assigned here. Rets
  /// are rewritten to `br cont(value)` when @p cont is a real block (void
  /// rets pass a fresh unknown). Calls to known functions are themselves
  /// spliced while @p depth > 0.
  void copy_function(const Function& src, std::vector<ValueId>& vmap,
                     BlockId cont, int depth) {
    // Pre-create one out-block per src block (calls will append extra
    // continuation blocks between them) and pre-assign every destination
    // value, so forward references in branch arguments resolve.
    std::vector<BlockId> bmap(src.blocks.size(), kNoBlock);
    for (const BasicBlock& sb : src.blocks) {
      const BlockId nb = new_block(src.name + "." + (sb.label.empty()
                                                         ? "bb" + std::to_string(sb.id)
                                                         : sb.label));
      bmap[static_cast<std::size_t>(sb.id)] = nb;
      for (ValueId p : sb.params) {
        const ValueId np = out_.fresh();
        block(nb).params.push_back(np);
        map(vmap, p, np);
      }
    }
    for (const BasicBlock& sb : src.blocks) {
      for (const Instr& ins : sb.body) {
        if (ins.dst != kNoValue && at(vmap, ins.dst) == kNoValue) {
          map(vmap, ins.dst, out_.fresh());
        }
      }
    }

    for (const BasicBlock& sb : src.blocks) {
      BlockId cursor = bmap[static_cast<std::size_t>(sb.id)];
      for (const Instr& ins : sb.body) {
        const Function* callee =
            ins.op == Op::kCall && depth > 0 ? program_.find(ins.callee)
                                             : nullptr;
        if (callee != nullptr) {
          cursor = splice_call(ins, *callee, vmap, cursor, depth);
          continue;
        }
        Instr copy = ins;
        copy.a = at(vmap, ins.a);
        copy.b = at(vmap, ins.b);
        copy.args.clear();
        for (ValueId a : ins.args) copy.args.push_back(at(vmap, a));
        if (ins.dst != kNoValue) copy.dst = at(vmap, ins.dst);
        block(cursor).body.push_back(std::move(copy));
      }
      emit_terminator(sb.term, vmap, bmap, cursor, cont);
    }
  }

 private:
  BasicBlock& block(BlockId b) {
    return out_.blocks[static_cast<std::size_t>(b)];
  }
  BlockId new_block(std::string label) {
    BasicBlock bb;
    bb.id = static_cast<BlockId>(out_.blocks.size());
    bb.label = std::move(label);
    out_.blocks.push_back(std::move(bb));
    return out_.blocks.back().id;
  }
  static ValueId at(const std::vector<ValueId>& vmap, ValueId v) {
    return v == kNoValue ? kNoValue : vmap[static_cast<std::size_t>(v)];
  }
  static void map(std::vector<ValueId>& vmap, ValueId from, ValueId to) {
    vmap[static_cast<std::size_t>(from)] = to;
  }
  ValueId emit_unknown(BlockId b) {
    Instr u{Op::kUnknown};
    u.dst = out_.fresh();
    block(b).body.push_back(u);
    return u.dst;
  }

  /// Splits the current block at a call: branch to a copy of the callee
  /// whose rets feed a continuation block whose single parameter is the
  /// call result. Returns the continuation block (the new cursor).
  BlockId splice_call(const Instr& call, const Function& callee,
                      std::vector<ValueId>& vmap, BlockId cursor, int depth) {
    const BlockId cont = new_block(call.callee + ".cont");
    // The call's pre-assigned result id becomes the continuation's param.
    // A result-less call (dst == kNoValue, representable when the Instr is
    // assembled by hand) still gets a fresh param — just no vmap entry.
    ValueId result = call.dst == kNoValue ? kNoValue : at(vmap, call.dst);
    if (result == kNoValue) {
      result = out_.fresh();
      if (call.dst != kNoValue) map(vmap, call.dst, result);
    }
    block(cont).params.push_back(result);

    std::vector<ValueId> cvmap(
        static_cast<std::size_t>(callee.next_value), kNoValue);
    for (std::size_t i = 0; i < callee.params.size(); ++i) {
      ValueId actual =
          i < call.args.size() ? at(vmap, call.args[i]) : kNoValue;
      if (actual == kNoValue) actual = emit_unknown(cursor);  // missing arg
      map(cvmap, callee.params[i], actual);
    }
    const BlockId callee_entry = static_cast<BlockId>(out_.blocks.size());
    copy_function(callee, cvmap, cont, depth - 1);
    block(cursor).term.op = TermOp::kBr;
    block(cursor).term.then_ = BranchTarget{callee_entry, {}};
    return cont;
  }

  void emit_terminator(const Terminator& t, std::vector<ValueId>& vmap,
                       const std::vector<BlockId>& bmap, BlockId cursor,
                       BlockId cont) {
    Terminator nt;
    nt.op = t.op;
    auto map_target = [&](const BranchTarget& bt) {
      BranchTarget n;
      n.block = bt.block >= 0 &&
                        static_cast<std::size_t>(bt.block) < bmap.size()
                    ? bmap[static_cast<std::size_t>(bt.block)]
                    : bt.block;
      for (ValueId a : bt.args) n.args.push_back(at(vmap, a));
      return n;
    };
    switch (t.op) {
      case TermOp::kBr:
        nt.then_ = map_target(t.then_);
        break;
      case TermOp::kBrCond:
        nt.cond = at(vmap, t.cond);
        nt.then_ = map_target(t.then_);
        nt.els = map_target(t.els);
        break;
      case TermOp::kRet:
        if (cont != kNoBlock) {
          ValueId rv = at(vmap, t.ret);
          if (rv == kNoValue) rv = emit_unknown(cursor);
          nt.op = TermOp::kBr;
          nt.then_ = BranchTarget{cont, {rv}};
        } else {
          nt.ret = at(vmap, t.ret);
        }
        break;
      case TermOp::kNone:
        break;
    }
    block(cursor).term = std::move(nt);
  }

  const Program& program_;
  Function& out_;
};

}  // namespace

Function inline_calls(const Program& program, const Function& entry) {
  Function out;
  out.name = entry.name + ".inlined";
  std::vector<ValueId> vmap(static_cast<std::size_t>(entry.next_value),
                            kNoValue);
  for (ValueId p : entry.params) {
    const ValueId np = out.fresh();
    out.params.push_back(np);
    vmap[static_cast<std::size_t>(p)] = np;
  }
  Inliner(program, out).copy_function(entry, vmap, kNoBlock, kInlineDepth);
  return out;
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

std::string to_string(const Function& f) {
  std::ostringstream os;
  // Built with append (not `"%" + to_string(...)`) to dodge a GCC 12
  // -Wrestrict false positive on char* + string&& in system headers.
  auto v = [](ValueId id) {
    if (id == kNoValue) return std::string("_");
    std::string s = "%";
    s += std::to_string(id);
    return s;
  };
  os << "func " << f.name << "(";
  for (std::size_t i = 0; i < f.params.size(); ++i) {
    os << (i != 0 ? ", " : "") << v(f.params[i]);
  }
  os << ")\n";
  auto target = [&](const BranchTarget& t) {
    std::ostringstream ts;
    ts << "bb" << t.block << "(";
    for (std::size_t i = 0; i < t.args.size(); ++i) {
      ts << (i != 0 ? ", " : "") << v(t.args[i]);
    }
    ts << ")";
    return ts.str();
  };
  for (const BasicBlock& bb : f.blocks) {
    os << "bb" << bb.id;
    if (!bb.params.empty()) {
      os << "(";
      for (std::size_t i = 0; i < bb.params.size(); ++i) {
        os << (i != 0 ? ", " : "") << v(bb.params[i]);
      }
      os << ")";
    }
    if (!bb.label.empty()) os << "  ; " << bb.label;
    os << ":\n";
    for (const Instr& ins : bb.body) {
      os << "  ";
      switch (ins.op) {
        case Op::kTxAlloc: os << v(ins.dst) << " = txalloc"; break;
        case Op::kAllocaTx: os << v(ins.dst) << " = alloca_tx"; break;
        case Op::kAllocaPre: os << v(ins.dst) << " = alloca_pre"; break;
        case Op::kStaticAddr: os << v(ins.dst) << " = static_addr"; break;
        case Op::kPrivAddr: os << v(ins.dst) << " = priv_addr"; break;
        case Op::kGep:
          os << v(ins.dst) << " = gep " << v(ins.a) << ", " << ins.offset;
          break;
        case Op::kMove: os << v(ins.dst) << " = move " << v(ins.a); break;
        case Op::kLoad:
          os << v(ins.dst) << " = load " << v(ins.a) << "+" << ins.offset
             << "  ; site " << ins.site;
          break;
        case Op::kStore:
          os << "store " << v(ins.a) << "+" << ins.offset << ", " << v(ins.b)
             << "  ; site " << ins.site;
          break;
        case Op::kCall: {
          os << v(ins.dst) << " = call " << ins.callee << "(";
          for (std::size_t i = 0; i < ins.args.size(); ++i) {
            os << (i != 0 ? ", " : "") << v(ins.args[i]);
          }
          os << ")";
          break;
        }
        case Op::kUnknown: os << v(ins.dst) << " = unknown"; break;
      }
      os << "\n";
    }
    os << "  ";
    switch (bb.term.op) {
      case TermOp::kNone: os << "<unterminated>"; break;
      case TermOp::kBr: os << "br " << target(bb.term.then_); break;
      case TermOp::kBrCond:
        os << "br_cond " << v(bb.term.cond) << ", " << target(bb.term.then_)
           << ", " << target(bb.term.els);
        break;
      case TermOp::kRet:
        os << "ret";
        if (bb.term.ret != kNoValue) os << " " << v(bb.term.ret);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cstm::txir
