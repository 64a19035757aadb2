// Miniature IR over which the compiler capture analysis runs (paper
// Section 3.2). The Intel compiler performed intraprocedural pointer
// analysis on C ASTs and relied on inlining to see across calls; txir
// reproduces that pipeline on an explicit IR.
//
// A function is a genuine control-flow graph: a list of basic blocks,
// each a run of non-terminator instructions closed by exactly one
// terminator (`br`, `br_cond`, or `ret`). Control-flow joins use
// block-argument-style phis: a block declares parameters, and every
// branch to it passes one argument per parameter — the (pred, value)
// pairs of a classic phi, but attached to the edge where they belong.
//
//   bb0:
//     %1 = txalloc              ; heap allocation inside the transaction
//     %2 = alloca_tx            ; stack local declared inside the atomic block
//     %3 = alloca_pre           ; stack local live before the transaction
//     %4 = static_addr          ; address of immutable static/global data
//     %5 = priv_addr            ; address of an annotated thread-private block
//     %6 = gep %1, 8            ; pointer arithmetic within a block
//     %7 = load %1+8            ; memory read  (site of a barrier)
//     store %1+8, %7            ; memory write (site of a barrier)
//     %8 = move %7              ; copy
//     %9 = call foo, %1, %2     ; call; inlined if foo is known, else opaque
//     %10 = unknown             ; opaque value (e.g. loaded from memory)
//     br_cond %10, bb1(%1), bb2(%2)
//   bb1(%11):                   ; block argument = phi over predecessors
//     br bb2(%11)
//   bb2(%12):
//     ret %12
//
// The analysis (txir/capture_analysis.hpp) runs a worklist dataflow over
// the blocks and computes, per access site, a capture Verdict;
// loads/stores with a non-unknown verdict need no STM barrier (stores to
// static data excepted).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cstm::txir {

using ValueId = std::int32_t;
using BlockId = std::int32_t;
inline constexpr ValueId kNoValue = -1;
inline constexpr BlockId kNoBlock = -1;

enum class Op : std::uint8_t {
  kTxAlloc,     // dst = transaction-local heap allocation
  kAllocaTx,    // dst = stack slot created inside the atomic block
  kAllocaPre,   // dst = stack slot that pre-exists the transaction (live-in)
  kStaticAddr,  // dst = address of immutable static/global data
  kPrivAddr,    // dst = address of an annotation-registered private block
  kGep,         // dst = a + constant offset (same object)
  kMove,        // dst = a
  kLoad,        // dst = *(a + offset)      [read barrier site]
  kStore,       // *(a + offset) = b        [write barrier site]
  kCall,        // dst = callee(args...)
  kUnknown,     // dst = opaque
};

struct Instr {
  Instr() = default;
  explicit Instr(Op o) : op(o) {}

  Op op = Op::kUnknown;
  ValueId dst = kNoValue;
  ValueId a = kNoValue;       // base pointer / first operand
  ValueId b = kNoValue;       // stored value
  std::int64_t offset = 0;    // gep/load/store displacement
  std::string callee;         // kCall only
  std::vector<ValueId> args;  // kCall only
  std::string site;           // label for load/store barrier sites
};

enum class TermOp : std::uint8_t {
  kNone,    // unterminated (verifier error; the builder's initial state)
  kBr,      // unconditional branch to `then_`
  kBrCond,  // conditional: cond != 0 -> then_, else els
  kRet,     // function return (value optional)
};

/// A branch edge: the target block plus one argument per target parameter.
struct BranchTarget {
  BlockId block = kNoBlock;
  std::vector<ValueId> args;
};

struct Terminator {
  TermOp op = TermOp::kNone;
  ValueId cond = kNoValue;  // kBrCond only
  ValueId ret = kNoValue;   // kRet only; kNoValue = void return
  BranchTarget then_;       // kBr/kBrCond
  BranchTarget els;         // kBrCond only
};

struct BasicBlock {
  BlockId id = kNoBlock;
  std::string label;             // diagnostics only
  std::vector<ValueId> params;   // block-argument-style phis
  std::vector<Instr> body;       // non-terminator instructions
  Terminator term;
};

struct Function {
  std::string name;
  std::vector<ValueId> params;  // parameters are opaque pointers/values
  std::vector<BasicBlock> blocks;  // blocks[0] is the entry block
  ValueId next_value = 0;

  ValueId fresh() { return next_value++; }
  BasicBlock& entry() { return blocks.front(); }
  const BasicBlock& entry() const { return blocks.front(); }
};

/// A program is a set of functions; analysis entry points name a function.
struct Program {
  std::unordered_map<std::string, Function> functions;

  Function& add(std::string name) {
    auto [it, inserted] = functions.try_emplace(name);
    it->second.name = std::move(name);
    return it->second;
  }
  const Function* find(const std::string& name) const {
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : &it->second;
  }
};

/// Builder with a fluent interface used by tests and the kernel encodings.
/// Creates the entry block on construction; instructions append to the
/// current block (switch with `set_block`). Every block must be closed
/// with `br` / `br_cond` / `ret` before `verify` accepts the function.
class FunctionBuilder {
 public:
  explicit FunctionBuilder(Function& f) : f_(f) {
    if (f_.blocks.empty()) (void)block("entry");
    cur_ = 0;
  }

  /// Creates a new (empty, unterminated) block; does not switch to it.
  BlockId block(std::string label = "") {
    BasicBlock bb;
    bb.id = static_cast<BlockId>(f_.blocks.size());
    bb.label = std::move(label);
    f_.blocks.push_back(std::move(bb));
    return f_.blocks.back().id;
  }
  void set_block(BlockId b) { cur_ = b; }
  BlockId current_block() const { return cur_; }

  /// Adds a parameter (phi) to block @p b and returns its value.
  ValueId block_param(BlockId b) {
    const ValueId v = f_.fresh();
    f_.blocks[static_cast<std::size_t>(b)].params.push_back(v);
    return v;
  }

  ValueId param() {
    const ValueId v = f_.fresh();
    f_.params.push_back(v);
    return v;
  }
  ValueId txalloc() { return emit_def(Op::kTxAlloc); }
  ValueId alloca_tx() { return emit_def(Op::kAllocaTx); }
  ValueId alloca_pre() { return emit_def(Op::kAllocaPre); }
  ValueId static_addr() { return emit_def(Op::kStaticAddr); }
  ValueId priv_addr() { return emit_def(Op::kPrivAddr); }
  ValueId unknown() { return emit_def(Op::kUnknown); }
  ValueId gep(ValueId base, std::int64_t off) {
    Instr i{Op::kGep};
    i.dst = f_.fresh();
    i.a = base;
    i.offset = off;
    push(std::move(i));
    return cur().body.back().dst;
  }
  ValueId move(ValueId src) {
    Instr i{Op::kMove};
    i.dst = f_.fresh();
    i.a = src;
    push(std::move(i));
    return cur().body.back().dst;
  }
  ValueId load(ValueId base, std::int64_t off, std::string site) {
    Instr i{Op::kLoad};
    i.dst = f_.fresh();
    i.a = base;
    i.offset = off;
    i.site = std::move(site);
    push(std::move(i));
    return cur().body.back().dst;
  }
  void store(ValueId base, std::int64_t off, ValueId value, std::string site) {
    Instr i{Op::kStore};
    i.a = base;
    i.b = value;
    i.offset = off;
    i.site = std::move(site);
    push(std::move(i));
  }
  ValueId call(std::string callee, std::vector<ValueId> args) {
    Instr i{Op::kCall};
    i.dst = f_.fresh();
    i.callee = std::move(callee);
    i.args = std::move(args);
    push(std::move(i));
    return cur().body.back().dst;
  }

  void br(BlockId target, std::vector<ValueId> args = {}) {
    Terminator& t = cur().term;
    t.op = TermOp::kBr;
    t.then_ = BranchTarget{target, std::move(args)};
  }
  void br_cond(ValueId cond, BlockId then_b, std::vector<ValueId> then_args,
               BlockId else_b, std::vector<ValueId> else_args) {
    Terminator& t = cur().term;
    t.op = TermOp::kBrCond;
    t.cond = cond;
    t.then_ = BranchTarget{then_b, std::move(then_args)};
    t.els = BranchTarget{else_b, std::move(else_args)};
  }
  void br_cond(ValueId cond, BlockId then_b, BlockId else_b) {
    br_cond(cond, then_b, {}, else_b, {});
  }
  void ret(ValueId value = kNoValue) {
    Terminator& t = cur().term;
    t.op = TermOp::kRet;
    t.ret = value;
  }

 private:
  BasicBlock& cur() { return f_.blocks[static_cast<std::size_t>(cur_)]; }
  void push(Instr i) { cur().body.push_back(std::move(i)); }
  ValueId emit_def(Op op) {
    Instr i{op};
    i.dst = f_.fresh();
    push(std::move(i));
    return cur().body.back().dst;
  }
  Function& f_;
  BlockId cur_ = 0;
};

/// Derived CFG facts: successor lists and a reverse postorder of the
/// reachable blocks — what the analysis engine's worklist reads. The
/// verifier derives dominators from them.
struct Cfg {
  std::vector<std::vector<BlockId>> succs;
  std::vector<BlockId> rpo;       // reachable blocks in reverse postorder
  std::vector<int> rpo_index;     // block -> position in rpo; -1 unreachable

  bool reachable(BlockId b) const {
    return b >= 0 && static_cast<std::size_t>(b) < rpo_index.size() &&
           rpo_index[static_cast<std::size_t>(b)] >= 0;
  }
};

Cfg build_cfg(const Function& f);

/// Structural verifier. Returns human-readable diagnostics; empty = valid.
/// Checks: at least one block, entry has no params, every block is
/// terminated, branch targets exist, branch argument counts match the
/// target's parameter counts, every value is defined exactly once, every
/// use is dominated by its definition (with block params defined at the
/// head of their block and branch arguments used at the end of the
/// predecessor).
std::vector<std::string> verify(const Function& f);

/// How many levels of calls inline_calls splices: the paper's compiler
/// "relies on function inlining to extend the analysis results across
/// function calls", and two levels reach every helper in the kernel corpus.
inline constexpr int kInlineDepth = 2;

/// Returns a copy of @p entry with calls to functions known in @p program
/// substituted (CFG spliced, value-renamed, rets rewired to a continuation
/// block) up to kInlineDepth levels. Remaining calls (unknown callees,
/// recursion, and calls past the depth) stay opaque — exactly the paper's
/// "intraprocedural analysis + inlining".
Function inline_calls(const Program& program, const Function& entry);

/// Human-readable dump (diagnostics and golden tests).
std::string to_string(const Function& f);

}  // namespace cstm::txir
