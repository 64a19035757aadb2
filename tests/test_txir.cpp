// Tests for the txir CFG and static capture analysis (paper Section 3.2,
// grown to the branch-aware, path-sensitive pipeline of src/txir, which
// sees across calls by inlining them).
//
// Structure:
//  * CFG structure: verifier accepts well-formed functions and names every
//    malformation (unterminated block, branch-arg/param arity mismatch,
//    redefinition, non-dominating use); build_cfg classifies back-edges vs
//    retreating edges and computes dominance;
//  * soundness: shapes where static elision is ILLEGAL (pre-tx allocation,
//    escape via store to shared, alias merge at a block param, publication
//    before an access on any path, opaque calls, loop-carried publication,
//    irreducible and multi-latch loops) must come back kUnknown;
//  * inlining: known callees are spliced kInlineDepth levels deep, and
//    every call left after that is opaque;
//  * path sensitivity: publication on ONE branch must not demote the
//    sibling branch's accesses — the precision the linear IR lacked;
//  * golden verdicts: the legal shapes must come back with the exact
//    verdict class the runtime Site constants bake in;
//  * kernel ground truth: every row of stamp_kernel_expectations() holds;
//  * verdict<->Site cross-check: the Site constants the execution-side
//    code binds agree with what the analysis derives for the matching
//    kernel sites.
#include <gtest/gtest.h>

#include <string>

#include "containers/txlist.hpp"
#include "stamp/kmeans/kmeans.hpp"
#include "stamp/vacation/vacation.hpp"
#include "stm/tvar.hpp"
#include "txir/capture_analysis.hpp"
#include "txir/ir.hpp"
#include "txir/kernels.hpp"

namespace cstm::txir {
namespace {

bool any_error_contains(const std::vector<std::string>& errs,
                        const std::string& needle) {
  for (const std::string& e : errs) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Verifier: well-formed CFGs pass; every malformation is named.
// ---------------------------------------------------------------------------

TEST(TxIrVerifier, AcceptsStraightLine) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  b.store(x, 0, x, "s");
  b.ret();
  EXPECT_TRUE(verify(f).empty());
}

TEST(TxIrVerifier, AcceptsDiamondWithBlockArgs) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId l = b.block("l");
  const BlockId r = b.block("r");
  const BlockId m = b.block("m");
  const ValueId phi = b.block_param(m);
  const ValueId x = b.txalloc();
  const ValueId y = b.txalloc();
  const ValueId c = b.unknown();
  b.br_cond(c, l, r);
  b.set_block(l);
  b.br(m, {x});
  b.set_block(r);
  b.br(m, {y});
  b.set_block(m);
  b.store(phi, 0, x, "s");
  b.ret();
  EXPECT_TRUE(verify(f).empty()) << verify(f).front();
}

TEST(TxIrVerifier, RejectsUnterminatedBlock) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  b.store(x, 0, x, "s");
  // no terminator
  const auto errs = verify(f);
  ASSERT_FALSE(errs.empty());
  EXPECT_TRUE(any_error_contains(errs, "not terminated"));
}

TEST(TxIrVerifier, RejectsBranchArgArityMismatch) {
  // The block-argument form of a phi/pred arity mismatch: a branch must
  // pass exactly one argument per target block parameter.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId m = b.block("m");
  (void)b.block_param(m);
  const ValueId x = b.txalloc();
  b.br(m, {});  // 0 args to a 1-param block
  b.set_block(m);
  b.store(x, 0, x, "s");
  b.ret();
  const auto errs = verify(f);
  ASSERT_FALSE(errs.empty());
  EXPECT_TRUE(any_error_contains(errs, "passes 0 args"));
}

TEST(TxIrVerifier, RejectsExtraBranchArgs) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId m = b.block("m");
  const ValueId x = b.txalloc();
  b.br(m, {x, x});  // 2 args to a 0-param block
  b.set_block(m);
  b.ret();
  EXPECT_TRUE(any_error_contains(verify(f), "passes 2 args"));
}

TEST(TxIrVerifier, RejectsBranchToNonexistentBlock) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  b.br(42);
  EXPECT_TRUE(any_error_contains(verify(f), "nonexistent block"));
}

TEST(TxIrVerifier, RejectsEntryBlockParams) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  (void)b.block_param(0);
  b.ret();
  EXPECT_TRUE(any_error_contains(verify(f), "entry block"));
}

TEST(TxIrVerifier, RejectsRedefinition) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  Instr dup{Op::kTxAlloc};
  dup.dst = x;  // redefines %x
  f.blocks[0].body.push_back(dup);
  b.ret();
  EXPECT_TRUE(any_error_contains(verify(f), "redefines"));
}

TEST(TxIrVerifier, RejectsUseNotDominatedByDef) {
  // The value is defined on one branch only but used after the merge: a
  // dominance violation (it must flow through a block parameter instead).
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId l = b.block("l");
  const BlockId r = b.block("r");
  const BlockId m = b.block("m");
  const ValueId c = b.unknown();
  b.br_cond(c, l, r);
  b.set_block(l);
  const ValueId x = b.txalloc();  // defined only on this path
  b.br(m);
  b.set_block(r);
  b.br(m);
  b.set_block(m);
  b.store(x, 0, x, "s");  // use not dominated by the definition
  b.ret();
  EXPECT_TRUE(any_error_contains(verify(f), "dominate"));
}

TEST(TxIrVerifier, RejectsUndefinedUse) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  Instr s{Op::kStore};
  s.a = 7;  // never defined
  s.b = 7;
  s.site = "s";
  f.blocks[0].body.push_back(s);
  f.next_value = 8;
  b.ret();
  EXPECT_TRUE(any_error_contains(verify(f), "undefined value"));
}

TEST(TxIrVerifier, RejectsBlockIdIndexMismatch) {
  // build_cfg and the analysis index every side table by block id; a
  // stale/duplicated id must be a diagnostic, not a wrong CFG.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId next = b.block("next");
  b.br(next);
  b.set_block(next);
  b.ret();
  f.blocks[1].id = 0;  // duplicate entry's id
  EXPECT_TRUE(any_error_contains(verify(f), "ids must match"));
}

TEST(TxIrInterproc, InliningHandlesResultlessCall) {
  // A call whose Instr was assembled by hand with dst == kNoValue is
  // representable; inlining must not index vmap with it.
  Program p;
  {
    Function& h = p.add("helper");
    FunctionBuilder b(h);
    const ValueId q = b.param();
    b.store(q, 0, q, "h.store");
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    Instr c{Op::kCall};
    c.callee = "helper";
    c.args = {x};  // dst stays kNoValue
    f.blocks[0].body.push_back(c);
    b.store(x, 8, x, "after");
    b.ret();
  }
  const Function inlined = inline_calls(p, *p.find("entry"));
  const auto errs = verify(inlined);
  EXPECT_TRUE(errs.empty()) << errs.front();
  // Inlined into the caller's context the helper's store hits captured
  // memory (same as InliningSpecializesCalleeSites).
  EXPECT_TRUE(analyze(p, "entry").site_elidable("h.store"));
  EXPECT_TRUE(analyze(p, "entry").site_elidable("after"));
}

TEST(TxIrVerifier, KernelCorpusIsWellFormed) {
  // Every kernel and helper, and every inlined entry, passes the verifier.
  const Program p = stamp_kernels();
  for (const auto& [name, f] : p.functions) {
    const auto errs = verify(f);
    EXPECT_TRUE(errs.empty()) << name << ": " << errs.front();
  }
  for (const KernelExpectation& e : stamp_kernel_expectations()) {
    const Function inlined = inline_calls(p, *p.find(e.entry));
    const auto errs = verify(inlined);
    EXPECT_TRUE(errs.empty()) << e.entry << ".inlined: " << errs.front();
  }
}

// ---------------------------------------------------------------------------
// CFG facts: RPO, dominance, back-edge vs retreating classification.
// ---------------------------------------------------------------------------

TEST(TxIrCfg, NaturalLoopHasBackEdge) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId head = b.block("head");
  const BlockId body = b.block("body");
  const BlockId exit = b.block("exit");
  const ValueId c = b.unknown();
  b.br(head);
  b.set_block(head);
  b.br_cond(c, body, exit);
  b.set_block(body);
  b.br(head);  // latch
  b.set_block(exit);
  b.ret();
  const Cfg cfg = build_cfg(f);
  ASSERT_EQ(cfg.back_edges.size(), 1u);
  EXPECT_EQ(cfg.back_edges[0].first, body);
  EXPECT_EQ(cfg.back_edges[0].second, head);
  EXPECT_EQ(cfg.retreating_edges.size(), 1u);
  EXPECT_FALSE(cfg.irreducible());
  EXPECT_TRUE(cfg.dominates(0, head));
  EXPECT_TRUE(cfg.dominates(head, body));
  EXPECT_TRUE(cfg.dominates(head, exit));
  EXPECT_FALSE(cfg.dominates(body, exit));
}

TEST(TxIrCfg, MultiLatchLoopHasTwoBackEdges) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId head = b.block("head");
  const BlockId l1 = b.block("latch1");
  const BlockId l2 = b.block("latch2");
  const BlockId exit = b.block("exit");
  const ValueId c = b.unknown();
  b.br(head);
  b.set_block(head);
  b.br_cond(c, l1, l2);
  b.set_block(l1);
  b.br_cond(c, head, exit);
  b.set_block(l2);
  b.br(head);
  b.set_block(exit);
  b.ret();
  const Cfg cfg = build_cfg(f);
  EXPECT_EQ(cfg.back_edges.size(), 2u);
  EXPECT_FALSE(cfg.irreducible());
}

TEST(TxIrCfg, IrreducibleLoopIsDetected) {
  // Two blocks jumping into each other, both reachable from the entry:
  // the retreating edge's target does not dominate its source.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId a = b.block("a");
  const BlockId c = b.block("c");
  const BlockId exit = b.block("exit");
  const ValueId u = b.unknown();
  b.br_cond(u, a, c);
  b.set_block(a);
  b.br_cond(u, c, exit);
  b.set_block(c);
  b.br_cond(u, a, exit);
  b.set_block(exit);
  b.ret();
  const Cfg cfg = build_cfg(f);
  EXPECT_TRUE(cfg.irreducible());
  EXPECT_TRUE(cfg.back_edges.empty());
  EXPECT_FALSE(cfg.retreating_edges.empty());
}

TEST(TxIrCfg, UnreachableBlockIsFlagged) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId dead = b.block("dead");
  b.ret();
  b.set_block(dead);
  b.ret();
  const Cfg cfg = build_cfg(f);
  EXPECT_TRUE(cfg.reachable(0));
  EXPECT_FALSE(cfg.reachable(dead));
}

// ---------------------------------------------------------------------------
// Golden verdicts: the legal elisions.
// ---------------------------------------------------------------------------

TEST(TxIrVerdict, TxAllocIsCaptured) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  b.store(x, 0, x, "s");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("s"), Verdict::kCaptured);
  EXPECT_TRUE(r.site_elidable("s"));
}

TEST(TxIrVerdict, AllocaTxIsStack) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.alloca_tx();
  (void)b.load(x, 0, "l");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("l"), Verdict::kStack);
  EXPECT_TRUE(r.site_elidable("l"));
}

TEST(TxIrVerdict, StaticAddrElidesReadsOnly) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId g = b.static_addr();
  const ValueId v = b.load(g, 0, "r");
  b.store(g, 0, v, "w");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("r"), Verdict::kStatic);
  EXPECT_TRUE(r.site_elidable("r"));
  EXPECT_EQ(r.site_verdict("w"), Verdict::kStatic);
  EXPECT_FALSE(r.site_elidable("w"));  // static data is read-only
}

TEST(TxIrVerdict, PrivAddrElidesBothDirections) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId q = b.priv_addr();
  const ValueId v = b.load(q, 0, "r");
  b.store(q, 0, v, "w");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("r"), Verdict::kPrivate);
  EXPECT_TRUE(r.site_elidable("r"));
  EXPECT_TRUE(r.site_elidable("w"));
}

TEST(TxIrVerdict, GepAndMovePreserveCapture) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  const ValueId y = b.gep(x, 16);
  const ValueId z = b.move(y);
  b.store(z, 8, x, "s");
  b.ret();
  EXPECT_TRUE(analyze(f).site_elidable("s"));
}

TEST(TxIrVerdict, InitsBeforePublicationStayProven) {
  // The dominant STAMP shape: initialize every field, then link. The
  // publication is the LAST access, so flow-sensitivity keeps the inits.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  b.store(x, 0, shared, "init.a");
  b.store(x, 8, shared, "init.b");
  b.store(shared, 0, x, "publish");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("init.a"));
  EXPECT_TRUE(r.site_elidable("init.b"));
  EXPECT_FALSE(r.site_elidable("publish"));
}

TEST(TxIrVerdict, CapturedFieldRoundTripKeepsClassification) {
  // Store a captured pointer into captured memory, load it back: the
  // field-cell tracking keeps the capture class alive.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId outer = b.txalloc();
  const ValueId inner = b.txalloc();
  b.store(outer, 0, inner, "store.inner");
  const ValueId w = b.load(outer, 0, "load.inner");
  b.store(w, 0, inner, "write.through");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("load.inner"), Verdict::kCaptured);
  EXPECT_TRUE(r.site_elidable("write.through"));
}

TEST(TxIrVerdict, LoadFromSharedMemoryIsUnknown) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId q = b.load(shared, 0, "l1");
  (void)b.load(q, 0, "l2");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_FALSE(r.site_elidable("l1"));
  EXPECT_FALSE(r.site_elidable("l2"));
}

TEST(TxIrVerdict, BlockParamOfTwoCapturesIsCaptured) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId l = b.block("l");
  const BlockId r = b.block("r");
  const BlockId m = b.block("m");
  const ValueId both = b.block_param(m);
  const ValueId a = b.txalloc();
  const ValueId c = b.txalloc();
  const ValueId u = b.unknown();
  b.br_cond(u, l, r);
  b.set_block(l);
  b.br(m, {a});
  b.set_block(r);
  b.br(m, {c});
  b.set_block(m);
  b.store(both, 0, a, "both");
  b.ret();
  EXPECT_TRUE(analyze(f).site_elidable("both"));
}

TEST(TxIrVerdict, LoopCursorReachesFixpoint) {
  // A gep-advanced cursor over a captured object carried around a loop
  // stays captured (no publication anywhere).
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId loop = b.block("loop");
  const BlockId exit = b.block("exit");
  const ValueId cur = b.block_param(loop);
  const ValueId x = b.txalloc();
  b.br(loop, {x});
  b.set_block(loop);
  b.store(cur, 0, x, "loop.store");
  const ValueId nxt = b.gep(cur, 8);
  const ValueId c = b.unknown();
  b.br_cond(c, loop, {nxt}, exit, {});
  b.set_block(exit);
  b.ret();
  EXPECT_TRUE(analyze(f).site_elidable("loop.store"));
}

// ---------------------------------------------------------------------------
// Path sensitivity: the precision the linear IR could not express.
// ---------------------------------------------------------------------------

TEST(TxIrPathSensitive, PublicationOnOneBranchSparesTheSibling) {
  // The captured object is published on the THEN path only. The ELSE
  // path's store must stay proven; the store after the merge must demote.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId pub = b.block("pub");
  const BlockId priv = b.block("priv");
  const BlockId merge = b.block("merge");
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  b.store(x, 0, shared, "init");
  const ValueId c = b.unknown();
  b.br_cond(c, pub, priv);
  b.set_block(pub);
  b.store(shared, 0, x, "publish");
  b.br(merge);
  b.set_block(priv);
  b.store(x, 8, shared, "priv.store");
  b.br(merge);
  b.set_block(merge);
  b.store(x, 16, shared, "merge.store");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("init"));
  EXPECT_TRUE(r.site_elidable("priv.store"))
      << "the non-publishing path must keep its proof";
  EXPECT_EQ(r.site_verdict("priv.store"), Verdict::kCaptured);
  EXPECT_FALSE(r.site_elidable("merge.store"));
  EXPECT_TRUE(r.site_demoted("merge.store"));
}

TEST(TxIrPathSensitive, LinearizedEncodingOfTheSameKernelDemotes) {
  // The same accesses flattened into one block in execution-table order
  // (the only encoding the old linear IR allowed): the publication now
  // textually precedes the sibling path's store, so the proof is lost.
  // This pair of tests is the regression guard for the CFG's raison
  // d'etre: at least one site provable only with real branches.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  b.store(x, 0, shared, "init");
  b.store(shared, 0, x, "publish");
  b.store(x, 8, shared, "priv.store");  // demoted here, proven in the CFG
  b.store(x, 16, shared, "merge.store");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("init"));
  EXPECT_FALSE(r.site_elidable("priv.store"));
  EXPECT_TRUE(r.site_demoted("priv.store"));
}

TEST(TxIrPathSensitive, PostLoopPublicationSparesLoopBody) {
  // The copy-loop shape: a cursor over fresh memory advances around a
  // back-edge; the object is published only after the loop exits.
  // Publication must not flow backwards into the loop body (the old
  // linear IR's phi-back-edge rule demoted every loop-carried store whose
  // site was published anywhere in the function).
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId loop = b.block("loop");
  const BlockId after = b.block("after");
  const ValueId shared = b.param();
  const ValueId cur = b.block_param(loop);
  const ValueId x = b.txalloc();
  b.br(loop, {x});
  b.set_block(loop);
  b.store(cur, 0, shared, "loop.copy");
  const ValueId nxt = b.gep(cur, 8);
  const ValueId c = b.unknown();
  b.br_cond(c, loop, {nxt}, after, {});
  b.set_block(after);
  b.store(shared, 0, x, "publish");
  b.store(x, 8, shared, "post.publish");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("loop.copy"))
      << "publication after the loop must not poison the loop body";
  EXPECT_TRUE(r.site_demoted("post.publish"));
}

TEST(TxIrPathSensitive, KernelCorpusContainsBranchProvenSites) {
  // Acceptance guard: the kernel expectation table must contain at least
  // two branch-diamond/loop kernels with a site that is (a) proven and
  // (b) provably NOT provable under a linearized encoding — encoded here
  // as the two named sites whose proofs depend on path structure.
  const Program p = stamp_kernels();
  const AnalysisResult vac = analyze(p, "vacation_reserve");
  EXPECT_EQ(vac.site_verdict("vacation.res.cancel"), Verdict::kCaptured);
  EXPECT_TRUE(vac.site_elidable("vacation.res.cancel"));
  EXPECT_TRUE(vac.site_demoted("vacation.res.merge"));
  const AnalysisResult vec = analyze(p, "vector_grow_push");
  EXPECT_EQ(vec.site_verdict("vector.copy.init"), Verdict::kCaptured);
  EXPECT_TRUE(vec.site_elidable("vector.copy.init"));
  EXPECT_TRUE(vec.site_demoted("vector.elem.post_publish"));
}

// ---------------------------------------------------------------------------
// Soundness: shapes where elision is illegal must come back kUnknown.
// ---------------------------------------------------------------------------

TEST(TxIrSoundness, PreTxAllocationKeepsBarrier) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.alloca_pre();
  b.store(x, 0, x, "s");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("s"), Verdict::kUnknown);
  EXPECT_FALSE(r.site_elidable("s"));
  EXPECT_FALSE(r.site_demoted("s"));  // never had a proof to lose
}

TEST(TxIrSoundness, ParametersAreUnknown) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.param();
  (void)b.load(x, 0, "l");
  b.ret();
  EXPECT_FALSE(analyze(f).site_elidable("l"));
}

TEST(TxIrSoundness, EscapeViaStoreToSharedDemotesLaterAccesses) {
  // Publication conservatism: after the captured pointer escapes into
  // shared memory, the zero-probe static path is withdrawn (the runtime
  // filters still catch these accesses).
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  b.store(x, 0, shared, "before");
  b.store(shared, 0, x, "publish");
  b.store(x, 8, shared, "after");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("before"));
  EXPECT_EQ(r.site_verdict("after"), Verdict::kUnknown);
  EXPECT_TRUE(r.site_demoted("after"));
}

TEST(TxIrSoundness, PublicationDemotesAliasesToo) {
  // A second copy of the pointer shares the allocation site: publication
  // through one copy demotes accesses through the other.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  const ValueId alias = b.move(x);
  b.store(shared, 0, x, "publish");
  b.store(alias, 0, shared, "via.alias");
  b.ret();
  EXPECT_TRUE(analyze(f).site_demoted("via.alias"));
}

TEST(TxIrSoundness, PublicationIsTransitiveThroughStoredPointers) {
  // Publishing the outer object publishes everything stored inside it.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId outer = b.txalloc();
  const ValueId inner = b.txalloc();
  b.store(outer, 0, inner, "store.inner");
  b.store(shared, 0, outer, "publish.outer");
  b.store(inner, 0, shared, "inner.after");
  b.ret();
  EXPECT_TRUE(analyze(f).site_demoted("inner.after"));
}

TEST(TxIrSoundness, PublicationReachesThroughSitesPublishedOnAnotherPath) {
  // One branch publishes `a`; the other stores `x` into `a` instead. After
  // the merge `a` may already be published, yet on the second path it was
  // not, and `x` sits inside it. Publishing `a` again (by a store or an
  // opaque call) must still publish `x`.
  for (const bool via_call : {false, true}) {
    Function f;
    FunctionBuilder b(f);
    const BlockId pub = b.block("pub");
    const BlockId hold = b.block("hold");
    const BlockId merge = b.block("merge");
    const ValueId shared = b.param();
    const ValueId a = b.txalloc();
    const ValueId x = b.txalloc();
    b.br_cond(b.unknown(), pub, hold);
    b.set_block(pub);
    b.store(shared, 0, a, "publish.a");
    b.br(merge);
    b.set_block(hold);
    b.store(a, 0, x, "a.holds.x");
    b.br(merge);
    b.set_block(merge);
    if (via_call) {
      (void)b.call("extern_fn", {a});
    } else {
      b.store(shared, 8, a, "publish.a.again");
    }
    b.store(x, 8, x, "x.after");
    b.ret();
    ASSERT_TRUE(verify(f).empty());
    const AnalysisResult r = analyze(f);
    EXPECT_TRUE(r.site_elidable("a.holds.x")) << "via_call=" << via_call;
    EXPECT_TRUE(r.site_demoted("x.after")) << "via_call=" << via_call;
  }
}

TEST(TxIrSoundness, AliasMergeAtBlockParamKeepsBarrier) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId l = b.block("l");
  const BlockId r = b.block("r");
  const BlockId m = b.block("m");
  const ValueId mixed = b.block_param(m);
  const ValueId a = b.txalloc();
  const ValueId u = b.param();
  const ValueId c = b.unknown();
  b.br_cond(c, l, r);
  b.set_block(l);
  b.br(m, {a});
  b.set_block(r);
  b.br(m, {u});
  b.set_block(m);
  b.store(mixed, 0, u, "mixed");
  b.ret();
  const AnalysisResult res = analyze(f);
  EXPECT_EQ(res.site_verdict("mixed"), Verdict::kUnknown);
  EXPECT_TRUE(res.site_demoted("mixed"));
}

TEST(TxIrSoundness, MixedMergeStoreInvalidatesFieldTracking) {
  // A store through a maybe-captured base must reach the site's field
  // cells: the later load may not resurrect the old stored value's proof.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId l = b.block("l");
  const BlockId r = b.block("r");
  const BlockId m = b.block("m");
  const ValueId mixed = b.block_param(m);
  const ValueId u = b.param();
  const ValueId x = b.txalloc();
  const ValueId inner = b.txalloc();
  b.store(x, 0, inner, "store.inner");
  const ValueId c = b.unknown();
  b.br_cond(c, l, r);
  b.set_block(l);
  b.br(m, {x});
  b.set_block(r);
  b.br(m, {u});
  b.set_block(m);
  b.store(mixed, 0, u, "mixed.store");
  const ValueId w = b.load(x, 0, "reload");
  b.store(w, 0, u, "through.reload");
  b.ret();
  EXPECT_FALSE(analyze(f).site_elidable("through.reload"));
}

TEST(TxIrSoundness, FieldStoredOnOnePathOnlyDoesNotSurviveTheMerge) {
  // The field is initialized on ONE branch only; on the other path it
  // holds uninitialized bits. A load after the merge must not resurrect
  // the stored value's captured proof — the write through it would be a
  // zero-probe elision of a store through possibly-garbage bits.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId yes = b.block("yes");
  const BlockId no = b.block("no");
  const BlockId m = b.block("m");
  const ValueId outer = b.txalloc();
  const ValueId inner = b.txalloc();
  const ValueId c = b.unknown();
  b.br_cond(c, yes, no);
  b.set_block(yes);
  b.store(outer, 0, inner, "store.inner");
  b.br(m);
  b.set_block(no);
  b.br(m);  // never stores the field
  b.set_block(m);
  const ValueId w = b.load(outer, 0, "load.maybe");
  b.store(w, 0, inner, "write.through");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("store.inner"));
  EXPECT_TRUE(r.site_elidable("load.maybe"));  // the LOAD hits outer: fine
  EXPECT_FALSE(r.site_elidable("write.through"))
      << "the loaded value may be uninitialized bits on the no-store path";
}

TEST(TxIrSoundness, FieldStoredOnBothPathsSurvivesTheMerge) {
  // Precision counterpart: when every path stores a capture, the merge
  // keeps the proof.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId yes = b.block("yes");
  const BlockId no = b.block("no");
  const BlockId m = b.block("m");
  const ValueId outer = b.txalloc();
  const ValueId inner = b.txalloc();
  const ValueId inner2 = b.txalloc();
  const ValueId c = b.unknown();
  b.br_cond(c, yes, no);
  b.set_block(yes);
  b.store(outer, 0, inner, "store.a");
  b.br(m);
  b.set_block(no);
  b.store(outer, 0, inner2, "store.b");
  b.br(m);
  b.set_block(m);
  const ValueId w = b.load(outer, 0, "load.both");
  b.store(w, 0, inner, "write.through");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_EQ(r.site_verdict("load.both"), Verdict::kCaptured);
  EXPECT_TRUE(r.site_elidable("write.through"));
}

TEST(TxIrSoundness, OpaqueCallPublishesPointerArguments) {
  // An unknown callee may store the argument anywhere: escape.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId x = b.txalloc();
  b.store(x, 0, x, "before");
  (void)b.call("extern_fn", {x});
  b.store(x, 0, x, "after");
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_TRUE(r.site_elidable("before"));
  EXPECT_TRUE(r.site_demoted("after"));
}

TEST(TxIrSoundness, OpaqueCallResultIsUnknown) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId r = b.call("extern_alloc", {});
  b.store(r, 0, r, "s");
  b.ret();
  EXPECT_FALSE(analyze(f).site_elidable("s"));
}

TEST(TxIrSoundness, LoopCarriedPublicationDemotes) {
  // The object is stored to at the top of the loop and published at the
  // bottom: in iteration >= 2 the store targets an already-published
  // object, so the publication must flow around the back-edge and demote
  // the store.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId head = b.block("head");
  const BlockId exit = b.block("exit");
  const ValueId shared = b.param();
  const ValueId ptr = b.block_param(head);
  const ValueId n0 = b.txalloc();
  b.br(head, {n0});
  b.set_block(head);
  b.store(ptr, 0, shared, "loop.store");
  b.store(shared, 0, ptr, "loop.publish");
  const ValueId c = b.unknown();
  b.br_cond(c, head, {ptr}, exit, {});
  b.set_block(exit);
  b.ret();
  const AnalysisResult r = analyze(f);
  EXPECT_FALSE(r.site_elidable("loop.store"));
  EXPECT_TRUE(r.site_demoted("loop.store"));
}

TEST(TxIrSoundness, StraightLineIsNotPenalizedByLoopRule) {
  // Same accesses without the back-edge: the store precedes the
  // publication on the only path, so the proof stands.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const ValueId shared = b.param();
  const ValueId n0 = b.txalloc();
  b.store(n0, 0, shared, "line.store");
  b.store(shared, 0, n0, "line.publish");
  b.ret();
  EXPECT_TRUE(analyze(f).site_elidable("line.store"));
}

TEST(TxIrSoundness, IrreducibleLoopDegradesConservatively) {
  // A multi-entry (irreducible) loop: block A stores through the captured
  // pointer, block C publishes it, and control can enter the cycle at
  // either block. The analysis must converge and must NOT over-prove: the
  // store in A is reachable after C's publication (A <-> C cycle), so it
  // demotes — even though one path (entry -> A) has no publication.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId a = b.block("a");
  const BlockId c = b.block("c");
  const BlockId exit = b.block("exit");
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  const ValueId u = b.unknown();
  b.br_cond(u, a, c);
  b.set_block(a);
  b.store(x, 0, shared, "irr.store");
  b.br_cond(u, c, exit);
  b.set_block(c);
  b.store(shared, 0, x, "irr.publish");
  b.br_cond(u, a, exit);
  b.set_block(exit);
  b.ret();
  ASSERT_TRUE(verify(f).empty());
  ASSERT_TRUE(build_cfg(f).irreducible());
  const AnalysisResult r = analyze(f);
  EXPECT_FALSE(r.site_elidable("irr.store"));
  EXPECT_TRUE(r.site_demoted("irr.store"));
  EXPECT_FALSE(r.site_elidable("irr.publish"));
}

TEST(TxIrSoundness, MultiLatchLoopPublicationFlowsThroughEveryLatch) {
  // Two latches, only one of which publishes: the header's store still
  // demotes (the publishing latch reaches it), never over-proves.
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId head = b.block("head");
  const BlockId l1 = b.block("latch1");
  const BlockId l2 = b.block("latch2");
  const BlockId exit = b.block("exit");
  const ValueId shared = b.param();
  const ValueId x = b.txalloc();
  const ValueId u = b.unknown();
  b.br(head);
  b.set_block(head);
  b.store(x, 0, shared, "latch.store");
  b.br_cond(u, l1, l2);
  b.set_block(l1);
  b.br_cond(u, head, exit);  // non-publishing latch
  b.set_block(l2);
  b.store(shared, 0, x, "latch.publish");
  b.br(head);  // publishing latch
  b.set_block(exit);
  b.ret();
  ASSERT_TRUE(verify(f).empty());
  ASSERT_EQ(build_cfg(f).back_edges.size(), 2u);
  const AnalysisResult r = analyze(f);
  EXPECT_FALSE(r.site_elidable("latch.store"));
  EXPECT_TRUE(r.site_demoted("latch.store"));
}

// ---------------------------------------------------------------------------
// Interprocedural: inlining, and the opaque calls it leaves.
// ---------------------------------------------------------------------------

TEST(TxIrInterproc, InliningProvesFreshAllocatorReturn) {
  Program p;
  {
    Function& helper = p.add("helper_alloc");
    FunctionBuilder b(helper);
    const ValueId v = b.txalloc();
    b.store(v, 0, v, "helper.init");
    b.ret(v);
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId r = b.call("helper_alloc", {});
    b.store(r, 0, r, "entry.use");
    b.ret();
  }
  const AnalysisResult r = analyze(p, "entry");
  EXPECT_TRUE(r.site_elidable("helper.init"));
  EXPECT_TRUE(r.site_elidable("entry.use"));
  // Without inlining the call is opaque and its result unknown.
  EXPECT_FALSE(analyze(*p.find("entry")).site_elidable("entry.use"));
}

TEST(TxIrInterproc, InlinedCalleePublishesEscapingArgument) {
  Program p;
  {
    Function& h = p.add("leak");
    FunctionBuilder b(h);
    const ValueId slot = b.param();
    const ValueId q = b.param();
    b.store(slot, 0, q, "leak.store");
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId x = b.txalloc();
    b.store(x, 0, slot, "before");
    (void)b.call("leak", {slot, x});
    b.store(x, 8, slot, "after");
    b.ret();
  }
  const AnalysisResult r = analyze(p, "entry");
  EXPECT_TRUE(r.site_elidable("before"));
  EXPECT_FALSE(r.site_elidable("leak.store"));
  EXPECT_TRUE(r.site_demoted("after"));
}

TEST(TxIrInterproc, ReadOnlyCalleeDoesNotKillCapture) {
  Program p;
  {
    Function& h = p.add("probe");
    FunctionBuilder b(h);
    const ValueId q = b.param();
    (void)b.load(q, 0, "probe.read");
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    (void)b.call("probe", {x});
    b.store(x, 0, x, "after");
    b.ret();
  }
  const AnalysisResult r = analyze(p, "entry");
  EXPECT_TRUE(r.site_elidable("probe.read"));
  EXPECT_TRUE(r.site_elidable("after"));
}

TEST(TxIrInterproc, InliningSpecializesCalleeSites) {
  // The callee's own site is only provable in the caller's context:
  // analyzed alone its parameter is unknown, inlined it is the caller's
  // captured object.
  Program p;
  {
    Function& h = p.add("store_into");
    FunctionBuilder b(h);
    const ValueId q = b.param();
    b.store(q, 0, q, "helper.store");
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    (void)b.call("store_into", {x});
    b.ret();
  }
  EXPECT_FALSE(analyze(*p.find("store_into")).site_elidable("helper.store"));
  EXPECT_TRUE(analyze(p, "entry").site_elidable("helper.store"));
}

TEST(TxIrInterproc, InliningAcrossBranchesKeepsPathSensitivity) {
  // A callee with its own diamond, inlined into a caller: the spliced CFG
  // must preserve the callee's path structure (the callee's non-publishing
  // path stays proven after inlining).
  Program p;
  {
    Function& h = p.add("maybe_publish");
    FunctionBuilder b(h);
    const ValueId slot = b.param();
    const ValueId q = b.param();
    const BlockId pub = b.block("pub");
    const BlockId skip = b.block("skip");
    const BlockId done = b.block("done");
    const ValueId c = b.unknown();
    b.br_cond(c, pub, skip);
    b.set_block(pub);
    b.store(slot, 0, q, "h.publish");
    b.br(done);
    b.set_block(skip);
    b.store(q, 8, slot, "h.priv");
    b.br(done);
    b.set_block(done);
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId x = b.txalloc();
    (void)b.call("maybe_publish", {slot, x});
    b.store(x, 16, slot, "caller.after");
    b.ret();
  }
  const AnalysisResult r = analyze(p, "entry");
  EXPECT_TRUE(r.site_elidable("h.priv"))
      << "the callee's non-publishing path must survive inlining";
  EXPECT_TRUE(r.site_demoted("caller.after"));
}

TEST(TxIrInterproc, InlineDepthLimits) {
  // entry -> chain1 -> ... -> chain<n> -> leaf, where leaf only writes
  // into its argument. With n == kInlineDepth the call to leaf is one
  // level too deep: it stays opaque, publishes the caller's object and
  // demotes the caller's later access. One level shorter, leaf is inlined
  // and the access stays proven.
  const auto chain_program = [](int n) {
    Program p;
    {
      Function& leaf = p.add("leaf");
      FunctionBuilder b(leaf);
      const ValueId q = b.param();
      b.store(q, 0, q, "leaf.store");
      b.ret();
    }
    for (int i = 1; i <= n; ++i) {
      Function& f = p.add("chain" + std::to_string(i));
      FunctionBuilder b(f);
      const ValueId q = b.param();
      (void)b.call(i == n ? "leaf" : "chain" + std::to_string(i + 1), {q});
      b.ret();
    }
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    (void)b.call("chain1", {x});
    b.store(x, 8, x, "after");
    b.ret();
    return p;
  };

  const AnalysisResult deep = analyze(chain_program(kInlineDepth), "entry");
  EXPECT_TRUE(deep.site_demoted("after"));
  EXPECT_EQ(deep.total(true), 1u) << "leaf.store must not be inlined";

  const AnalysisResult within =
      analyze(chain_program(kInlineDepth - 1), "entry");
  EXPECT_TRUE(within.site_elidable("leaf.store"));
  EXPECT_TRUE(within.site_elidable("after"));
}

TEST(TxIrInterproc, RecursionDegradesToOpaque) {
  Program p;
  {
    Function& f = p.add("rec");
    FunctionBuilder b(f);
    const ValueId q = b.param();
    (void)b.call("rec", {q});
    b.ret(q);
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    (void)b.call("rec", {x});
    b.store(x, 0, x, "after");
    b.ret();
  }
  // Inlining stops after kInlineDepth copies of rec; the innermost call is
  // opaque, so the argument escapes.
  EXPECT_TRUE(analyze(p, "entry").site_demoted("after"));
}

TEST(TxIrInterproc, CalleeWritesThroughReachablePointersClobberCells) {
  // A callee can load a pointer OUT of its argument's memory and store a
  // shared pointer through it. The caller's field cells reachable from
  // the argument (transitively) must not keep the pre-call contents, or a
  // later reload would resurrect the capture proof for what is now a
  // shared pointer — an unsound zero-probe elision. Inlined, the callee's
  // store updates the cell; left opaque (`deep_write` unknown), the call
  // publishes everything reachable from the argument.
  for (const bool inlined : {true, false}) {
    Program p;
    if (inlined) {
      Function& h = p.add("deep_write");
      FunctionBuilder b(h);
      const ValueId q = b.param();
      const ValueId r = b.param();
      const ValueId t = b.load(q, 0, "deep.load");
      b.store(t, 0, r, "deep.store");
      b.ret();
    }
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId shared = b.param();
    const ValueId x = b.txalloc();
    const ValueId y = b.txalloc();
    const ValueId z = b.txalloc();
    b.store(x, 0, y, "x.holds.y");
    b.store(y, 0, z, "y.holds.z");
    (void)b.call("deep_write", {x, shared});
    const ValueId w = b.load(y, 0, "reload");
    b.store(w, 0, shared, "through.reload");
    b.ret();
    // y's field may now hold `shared`: the write through the reload must
    // keep its barrier.
    EXPECT_FALSE(analyze(p, "entry").site_elidable("through.reload"))
        << "inlined=" << inlined;
  }
}

TEST(TxIrInterproc, ReadOnlyCalleeDoesNotClobberReachableCells) {
  // The inverse precision check: an inlined read-only callee leaves the
  // caller's field tracking intact.
  Program p;
  {
    Function& h = p.add("deep_read");
    FunctionBuilder b(h);
    const ValueId q = b.param();
    const ValueId t = b.load(q, 0, "deepread.load");
    (void)b.load(t, 0, "deepread.load2");
    b.ret();
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId shared = b.param();
    const ValueId x = b.txalloc();
    const ValueId y = b.txalloc();
    b.store(x, 0, y, "x.holds.y");
    (void)b.call("deep_read", {x});
    const ValueId w = b.load(x, 0, "reload");
    b.store(w, 0, shared, "through.reload");
    b.ret();
  }
  const AnalysisResult r = analyze(p, "entry");
  EXPECT_TRUE(r.site_elidable("deepread.load2"));
  EXPECT_TRUE(r.site_elidable("through.reload"));
}

TEST(TxIrInterproc, InliningPassesArgumentThrough) {
  Program p;
  {
    Function& h = p.add("ident");
    FunctionBuilder b(h);
    const ValueId q = b.param();
    b.ret(q);
  }
  {
    Function& f = p.add("entry");
    FunctionBuilder b(f);
    const ValueId x = b.txalloc();
    const ValueId y = b.call("ident", {x});
    b.store(y, 0, x, "through");
    b.ret();
  }
  EXPECT_TRUE(analyze(p, "entry").site_elidable("through"));
}

TEST(TxIr, DumpIsStable) {
  Program p;
  Function& f = p.add("f");
  FunctionBuilder b(f);
  const BlockId next = b.block("next");
  const ValueId x = b.txalloc();
  const ValueId g = b.static_addr();
  const ValueId v = b.load(g, 0, "lg");
  b.store(x, 0, x, "s");
  b.br_cond(v, next, next);
  b.set_block(next);
  b.ret(x);
  const std::string dump = to_string(f);
  EXPECT_NE(dump.find("txalloc"), std::string::npos);
  EXPECT_NE(dump.find("static_addr"), std::string::npos);
  EXPECT_NE(dump.find("store"), std::string::npos);
  EXPECT_NE(dump.find("br_cond"), std::string::npos);
  EXPECT_NE(dump.find("bb1"), std::string::npos);
  EXPECT_NE(dump.find("ret"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kernel ground truth: every expectation row must hold. These are the same
// decisions the execution-side Site tables encode in their verdict fields.
// ---------------------------------------------------------------------------

class KernelTruth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelTruth, MatchesAnalysis) {
  const auto expectations = stamp_kernel_expectations();
  const KernelExpectation& e = expectations[GetParam()];
  const Program p = stamp_kernels();
  const AnalysisResult r = analyze(p, e.entry);
  for (const SiteExpectation& s : e.sites) {
    EXPECT_EQ(r.site_verdict(s.site), s.verdict)
        << e.entry << ": " << s.site << " verdict mismatch";
    EXPECT_EQ(r.site_elidable(s.site), s.elidable)
        << e.entry << ": " << s.site << " elidability mismatch";
    EXPECT_EQ(r.site_demoted(s.site), s.demoted)
        << e.entry << ": " << s.site << " demotion mismatch";
  }
  // The row lists every site the analysis reports, callee sites exposed by
  // inlining included.
  EXPECT_EQ(r.stats().sites_total, e.sites.size()) << e.entry;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelTruth,
    ::testing::Range<std::size_t>(0, stamp_kernel_expectations().size()),
    [](const auto& info) {
      return stamp_kernel_expectations()[info.param].entry;
    });

// ---------------------------------------------------------------------------
// Verdict <-> Site cross-check. The old sampled hand-cross-check (a few
// execution-side constants spot-checked against the analysis) is gone:
// the constants are now GENERATED from the analysis, so the invariant is
// enforced structurally — tests/test_sitegen.cpp checks every generated
// row against its cited evidence and the `sitegen_check` ctest gates the
// committed header against a fresh render. What remains here are the
// Sites that are NOT generated (the tvar/tfield-derived init Sites and
// the kAuto* lattice constants in src/stm/), which still need the
// analysis cross-check by hand.
// ---------------------------------------------------------------------------

TEST(KernelSiteCrossCheck, NonGeneratedSiteVerdictsMatchAnalysis) {
  const Program p = stamp_kernels();

  // vacation's Reservation field inits go through tfield::init, whose
  // derived Site carries Verdict::kCaptured.
  using ResField =
      tfield<std::uint64_t, stamp::vacation_sites::kResField>;
  EXPECT_EQ(analyze(p, "vacation_update_add")
                .site_verdict("vacation.res.init.price"),
            ResField::kInitSite.verdict);

  // The generic auto-captured Site used for tx_malloc'd scratch matches
  // the captured verdict of the allocator kernels.
  EXPECT_EQ(analyze(p, "list_insert").site_verdict("list.node.init.value"),
            kAutoCapturedSite.verdict);
}

// ---------------------------------------------------------------------------
// Stats and the report surface.
// ---------------------------------------------------------------------------

TEST(KernelReports, EveryKernelAnalyzesAndTotalsAreConsistent) {
  const auto reports = stamp_kernel_reports();
  ASSERT_GE(reports.size(), 10u);
  for (const auto& r : reports) {
    EXPECT_GE(r.stats.sites_total, r.stats.proven + r.stats.demoted)
        << r.entry;
    EXPECT_LE(r.elided_accesses, r.loads + r.stores) << r.entry;
  }
}

TEST(KernelReports, StampKernelsReportPositiveElision) {
  // Acceptance: the STAMP-style kernels must come through the analysis
  // with a positive elision ratio.
  const auto reports = stamp_kernel_reports();
  std::size_t stamp_proven = 0;
  for (const auto& r : reports) {
    if (r.entry == "vacation_update_add" || r.entry == "vacation_reserve" ||
        r.entry == "genome_dedup_insert" || r.entry == "vector_grow_push") {
      EXPECT_GT(r.stats.proven, 0u) << r.entry;
      stamp_proven += r.stats.proven;
    }
  }
  EXPECT_GE(stamp_proven, 10u);
}

TEST(KernelReports, OverallElisionDoesNotRegress) {
  // The CFG rework must not lose precision on the corpus: the pre-CFG
  // pipeline proved 49.2% of kernel accesses (29/59 sites).
  std::size_t accesses = 0, elided = 0, sites = 0, proven = 0;
  for (const auto& r : stamp_kernel_reports()) {
    accesses += r.loads + r.stores;
    elided += r.elided_accesses;
    sites += r.stats.sites_total;
    proven += r.stats.proven;
  }
  ASSERT_GT(accesses, 0u);
  EXPECT_GE(100.0 * static_cast<double>(elided) /
                static_cast<double>(accesses),
            49.2);
  EXPECT_GE(proven, 29u);
  EXPECT_GE(sites, 59u);
}

TEST(KernelReports, TableMentionsEveryKernel) {
  const std::string table = kernel_report_table();
  for (const auto& r : stamp_kernel_reports()) {
    EXPECT_NE(table.find(r.entry), std::string::npos) << r.entry;
  }
  EXPECT_NE(table.find("ALL"), std::string::npos);
}

}  // namespace
}  // namespace cstm::txir
