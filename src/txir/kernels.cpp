#include "txir/kernels.hpp"

#include <cstdio>

namespace cstm::txir {

Program stamp_kernels() {
  Program p;

  // ==== Helpers (inlined into their callers) ================================

  // PVECTOR_ALLOC-style allocator wrapper: returns a fresh capture. Once
  // inlined, the caller's uses of the result are proven captured.
  {
    Function& f = p.add("pvector_alloc");
    FunctionBuilder b(f);
    const ValueId n = b.param();
    const ValueId v = b.txalloc();
    b.store(v, 0, n, "pvector.init.size");
    b.ret(v);
  }

  // Read-only tree probe: loads through its parameters but never stores
  // them anywhere — inlined, it publishes nothing, so callers keep their
  // capture proofs across the call.
  {
    Function& f = p.add("table_find");
    FunctionBuilder b(f);
    const ValueId table = b.param();
    const ValueId key = b.param();
    (void)key;
    const ValueId root = b.load(table, 0, "tfind.root.read");
    const ValueId node = b.load(root, 16, "tfind.node.read");
    b.ret(node);
  }

  // Publishing helper: stores its second parameter through the first.
  // Inlined, the store publishes the caller's object and later accesses
  // demote.
  {
    Function& f = p.add("publish_to");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId ptr = b.param();
    b.store(slot, 0, ptr, "helper.publish");
    b.ret();
  }

  // ==== Figure 1 / container shapes =========================================

  // list_insert: node allocated in-tx, initialized, linked into a shared
  // list last — the dominant STAMP write pattern (~90% of write barriers
  // hit captured memory because of inits like these). Flow-sensitivity is
  // what keeps the inits proven: they precede the publication.
  {
    Function& f = p.add("list_insert");
    FunctionBuilder b(f);
    const ValueId list = b.param();
    const ValueId value = b.param();
    const ValueId node = b.txalloc();
    b.store(node, 0, value, "list.node.init.value");
    const ValueId head = b.load(list, 0, "list.head.read");
    b.store(node, 8, head, "list.node.init.next");
    b.store(list, 0, node, "list.link");
    b.ret();
  }

  // iter_loop: Figure 1(a) as a real loop. The list iterator lives in a
  // stack slot allocated inside the transaction; the loop header tests the
  // current node and the body advances the iterator around a back-edge.
  // Iterator-state accesses are stack-captured on every iteration; node
  // accesses through loaded pointers are not.
  {
    Function& f = p.add("iter_loop");
    FunctionBuilder b(f);
    const ValueId list = b.param();
    const BlockId loop = b.block("loop");
    const BlockId body = b.block("body");
    const BlockId exit = b.block("exit");

    const ValueId it = b.alloca_tx();
    const ValueId head = b.load(list, 0, "iter.list.head");
    b.store(it, 0, head, "iter.init");
    b.br(loop);

    b.set_block(loop);
    const ValueId cur = b.load(it, 0, "iter.cur.read");
    b.br_cond(cur, body, exit);

    b.set_block(body);
    const ValueId next = b.load(cur, 8, "iter.node.next");
    b.store(it, 0, next, "iter.advance");
    b.br(loop);  // back-edge: loop dominates body

    b.set_block(exit);
    b.ret();
  }

  // ==== vacation table ops ==================================================

  // vacation_update_add (task_update_tables, add-miss path): a fresh
  // Reservation record is allocated and field-initialized inside the
  // transaction, then attached to the shared tree. The four tfield::init
  // calls in src/stamp/vacation are these four stores.
  {
    Function& f = p.add("vacation_update_add");
    FunctionBuilder b(f);
    const ValueId table = b.param();
    const ValueId price = b.param();
    const ValueId r = b.txalloc();
    b.store(r, 0, price, "vacation.res.init.used");
    b.store(r, 8, price, "vacation.res.init.free");
    b.store(r, 16, price, "vacation.res.init.total");
    b.store(r, 24, price, "vacation.res.init.price");
    const ValueId root = b.load(table, 0, "vacation.tree.root.read");
    const ValueId child = b.load(root, 16, "vacation.tree.child.read");
    b.store(child, 24, r, "vacation.tree.attach");
    b.ret();
  }

  // vacation_reserve (task_make_reservation): the real reservation-check
  // DIAMOND. The thread-private query vector of Figure 1(b) (priv_addr)
  // and the found/best_price stack scratch feed a probe of the shared
  // tree; a fresh Reservation record is allocated and priced before the
  // branch. If the reservation is available the record is attached to the
  // shared tree (publication); otherwise the record stays transaction-
  // local and its cancellation field is written IN PLACE — a store the
  // old linear IR had to demote (the attach preceded it textually) but
  // path-sensitive analysis proves: no path reaching it publishes the
  // record. After the merge the record may be published, so the merge
  // store demotes; the stack scratch is never published and stays proven
  // on every path.
  {
    Function& f = p.add("vacation_reserve");
    FunctionBuilder b(f);
    const ValueId table = b.param();
    const BlockId book = b.block("book");
    const BlockId skip = b.block("skip");
    const BlockId merge = b.block("merge");

    const ValueId qv = b.priv_addr();
    const ValueId rid = b.unknown();  // rng output
    b.store(qv, 0, rid, "vacation.query.write");
    const ValueId id = b.load(qv, 0, "vacation.query.read");
    b.store(qv, 8, rid, "vacation.query.write2");
    (void)b.load(qv, 8, "vacation.query.read2");
    const ValueId found = b.alloca_tx();
    b.store(found, 0, rid, "vacation.scratch.init");
    const ValueId best = b.alloca_tx();
    b.store(best, 0, rid, "vacation.best.init");
    const ValueId r = b.txalloc();
    b.store(r, 0, rid, "vacation.res.init.price");
    const ValueId res = b.call("table_find", {table, id});
    const ValueId ok = b.load(res, 8, "vacation.res.read");
    b.br_cond(ok, book, skip);

    b.set_block(book);
    const ValueId root = b.load(table, 0, "vacation.tree.root.read");
    b.store(root, 24, r, "vacation.tree.attach");  // publishes r
    b.store(best, 0, ok, "vacation.best.book");
    b.br(merge);

    b.set_block(skip);
    b.store(r, 8, rid, "vacation.res.cancel");  // proven: only the sibling
                                                // path publishes r
    b.store(best, 0, rid, "vacation.best.skip");
    b.br(merge);

    b.set_block(merge);
    b.store(r, 16, rid, "vacation.res.merge");  // demoted: join of paths
    const ValueId bp = b.load(best, 0, "vacation.best.read");
    b.store(found, 0, bp, "vacation.scratch.update");
    b.ret();
  }

  // ==== genome segment dedup ================================================

  // genome_dedup_insert (TxHashtable::insert) with the real found/not-found
  // control flow: hash the segment against the immutable gene table
  // (static read), walk the bucket chain in a block-param loop, and either
  // bump the existing node (through a loaded pointer — never elidable) or
  // allocate + initialize + link a fresh chain node. The inits on the miss
  // path stay proven; the bump AFTER the link demotes on that same path
  // (the runtime alloc-log still elides it; only the zero-probe static
  // path refuses).
  {
    Function& f = p.add("genome_dedup_insert");
    FunctionBuilder b(f);
    const ValueId table = b.param();
    const ValueId seg = b.param();
    const BlockId loop = b.block("loop");
    const BlockId check = b.block("check");
    const BlockId step = b.block("step");
    const BlockId hit = b.block("hit");
    const BlockId miss = b.block("miss");
    const ValueId cur = b.block_param(loop);

    const ValueId g = b.static_addr();
    (void)b.load(g, 0, "genome.gene.read");  // hash input: static table
    const ValueId head = b.load(table, 0, "genome.bucket.head.read");
    b.br(loop, {head});

    b.set_block(loop);
    b.br_cond(cur, check, miss);

    b.set_block(check);
    const ValueId k = b.load(cur, 0, "genome.chain.key.read");
    b.br_cond(k, hit, step);

    b.set_block(step);
    const ValueId nxt = b.load(cur, 16, "genome.chain.next.read");
    b.br(loop, {nxt});  // back-edge with a block argument

    b.set_block(hit);
    b.store(cur, 8, seg, "genome.hit.bump");
    b.ret();

    b.set_block(miss);
    const ValueId node = b.txalloc();
    b.store(node, 0, seg, "genome.node.init.key");
    b.store(node, 8, seg, "genome.node.init.count");
    b.store(node, 16, head, "genome.node.init.next");
    b.store(table, 0, node, "genome.bucket.link");
    b.store(node, 8, seg, "genome.count.bump");
    b.ret();
  }

  // ==== vector grow-and-copy (Figure 1(b) / TxVector::push_back) ============

  // The real grow BRANCH plus the copy LOOP. Fast path: store the element
  // through the loaded data pointer (shared — the runtime handles it).
  // Grow path: the new backing store comes from an allocator helper
  // (proven captured once inlined); the element
  // copy advances a cursor around a back-edge — a loop-carried pointer
  // into memory that is published only AFTER the loop exits. The old
  // linear IR's phi-back-edge rule had to demote every loop-carried store
  // whose site gets published anywhere; the CFG analysis proves the loop
  // body (publication cannot flow backwards along any path) and still
  // demotes the post-publish element store, exactly the paper's division
  // of labor with the runtime heap filter.
  {
    Function& f = p.add("vector_grow_push");
    FunctionBuilder b(f);
    const ValueId vec = b.param();
    const ValueId v = b.param();
    const BlockId fast = b.block("fast");
    const BlockId grow = b.block("grow");
    const BlockId copy = b.block("copy");
    const BlockId growdone = b.block("growdone");
    const BlockId done = b.block("done");
    const ValueId dst = b.block_param(copy);

    const ValueId n = b.load(vec, 8, "vector.size.read");
    const ValueId cap = b.load(vec, 16, "vector.cap.read");
    b.br_cond(cap, fast, grow);  // stand-in for size < capacity

    b.set_block(fast);
    const ValueId data = b.load(vec, 0, "vector.data.read");
    b.store(data, 0, v, "vector.elem.store");
    b.br(done);

    b.set_block(grow);
    const ValueId bigger = b.call("pvector_alloc", {n});
    b.store(bigger, 24, n, "vector.newcap.write");
    const ValueId olddata = b.load(vec, 0, "vector.olddata.read");
    b.br(copy, {bigger});

    b.set_block(copy);
    const ValueId e = b.load(olddata, 0, "vector.copy.read");
    b.store(dst, 0, e, "vector.copy.init");  // proven: published only after
                                             // the loop, on no path back in
    const ValueId d2 = b.gep(dst, 8);
    const ValueId more = b.unknown();  // stand-in for cursor != end
    b.br_cond(more, copy, {d2}, growdone, {});

    b.set_block(growdone);
    b.store(vec, 0, bigger, "vector.data.publish");
    b.store(bigger, 16, v, "vector.elem.post_publish");  // demoted
    b.br(done);

    b.set_block(done);
    b.store(vec, 8, n, "vector.size.write");
    b.ret();
  }

  // ==== precision / soundness shapes ========================================

  // kmeans_update: all accesses target shared cluster centers passed in
  // from outside — zero capture opportunity (matches Fig. 8's kmeans).
  {
    Function& f = p.add("kmeans_update");
    FunctionBuilder b(f);
    const ValueId center = b.param();
    const ValueId delta = b.param();
    (void)delta;
    const ValueId old = b.load(center, 0, "kmeans.center.read");
    const ValueId sum = b.move(old);  // stand-in for arithmetic
    b.store(center, 0, sum, "kmeans.center.write");
    b.ret();
  }

  // pre_tx_buffer: a stack buffer that pre-exists the transaction holds
  // live-in values; the analysis must keep its barrier.
  {
    Function& f = p.add("pre_tx_buffer");
    FunctionBuilder b(f);
    const ValueId v = b.param();
    const ValueId buf = b.alloca_pre();
    b.store(buf, 0, v, "pretx.store");
    b.ret();
  }

  // branch_merge: two diamonds over block-argument joins. Both sides of
  // the first join allocate in-tx => still captured; the second joins a
  // capture with a shared parameter — an alias merge that kills the proof
  // (demotion).
  {
    Function& f = p.add("branch_merge");
    FunctionBuilder b(f);
    const ValueId shared = b.param();
    const BlockId la = b.block("left.a");
    const BlockId ra = b.block("right.a");
    const BlockId m1 = b.block("merge.captured");
    const BlockId lb = b.block("left.b");
    const BlockId rb = b.block("right.b");
    const BlockId m2 = b.block("merge.mixed");
    const ValueId both = b.block_param(m1);
    const ValueId mixed = b.block_param(m2);

    const ValueId x = b.txalloc();
    const ValueId y = b.txalloc();
    const ValueId c = b.unknown();
    b.br_cond(c, la, ra);

    b.set_block(la);
    b.br(m1, {x});
    b.set_block(ra);
    b.br(m1, {y});

    b.set_block(m1);
    b.store(both, 0, shared, "join.both.captured");
    const ValueId c2 = b.unknown();
    b.br_cond(c2, lb, rb);

    b.set_block(lb);
    b.br(m2, {x});
    b.set_block(rb);
    b.br(m2, {shared});

    b.set_block(m2);
    b.store(mixed, 0, shared, "join.mixed");
    b.ret();
  }

  // escape_via_call: the inlined publishing helper makes the escape
  // visible; accesses before the call stay proven, accesses after it
  // demote.
  {
    Function& f = p.add("escape_via_call");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId x = b.txalloc();
    b.store(x, 0, slot, "escape.init");
    (void)b.call("publish_to", {slot, x});
    b.store(x, 8, slot, "escape.after_call");
    b.ret();
  }

  // no_escape_call: same shape, but the callee only reads — inlining
  // proves the capture survives the call (precision the opaque rule would
  // throw away).
  {
    Function& f = p.add("no_escape_call");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId y = b.txalloc();
    b.store(y, 0, slot, "noescape.init");
    (void)b.call("table_find", {y, slot});
    b.store(y, 8, slot, "noescape.after_call");
    b.ret();
  }

  // opaque_escape: an unknown callee may publish any pointer argument.
  {
    Function& f = p.add("opaque_escape");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId z = b.txalloc();
    b.store(z, 0, slot, "opaque.init");
    (void)b.call("extern_fn", {z});
    b.store(z, 8, slot, "opaque.after_call");
    b.ret();
  }

  // static_data_read: immutable static tables (genome's gene string,
  // intruder's dictionary) — reads elide, stores never do.
  {
    Function& f = p.add("static_data_read");
    FunctionBuilder b(f);
    const ValueId g = b.static_addr();
    const ValueId v = b.load(g, 0, "static.read");
    b.store(g, 0, v, "static.write");
    b.ret();
  }

  // cell_roundtrip: a captured pointer stored into captured memory and
  // loaded back keeps its classification (field tracking).
  {
    Function& f = p.add("cell_roundtrip");
    FunctionBuilder b(f);
    const ValueId outer = b.txalloc();
    const ValueId inner = b.txalloc();
    b.store(outer, 0, inner, "cell.store.inner");
    const ValueId w = b.load(outer, 0, "cell.load.inner");
    b.store(w, 0, inner, "cell.write.through");
    b.ret();
  }

  // cell_publish_closure: publishing an object transitively publishes
  // everything stored inside it — the inner object demotes too.
  {
    Function& f = p.add("cell_publish_closure");
    FunctionBuilder b(f);
    const ValueId slot = b.param();
    const ValueId outer = b.txalloc();
    const ValueId inner = b.txalloc();
    b.store(outer, 0, inner, "closure.store.inner");
    b.store(slot, 0, outer, "closure.publish.outer");
    b.store(inner, 0, slot, "closure.inner.after");
    b.ret();
  }

  return p;
}

std::vector<KernelExpectation> stamp_kernel_expectations() {
  using V = Verdict;
  return {
      {"list_insert",
       {{"list.node.init.value", V::kCaptured, true, false},
        {"list.node.init.next", V::kCaptured, true, false},
        {"list.head.read", V::kUnknown, false, false},
        {"list.link", V::kUnknown, false, false}}},
      {"iter_loop",
       {{"iter.init", V::kStack, true, false},
        {"iter.cur.read", V::kStack, true, false},
        {"iter.advance", V::kStack, true, false},
        {"iter.list.head", V::kUnknown, false, false},
        {"iter.node.next", V::kUnknown, false, false}}},
      {"vacation_update_add",
       {{"vacation.res.init.used", V::kCaptured, true, false},
        {"vacation.res.init.free", V::kCaptured, true, false},
        {"vacation.res.init.total", V::kCaptured, true, false},
        {"vacation.res.init.price", V::kCaptured, true, false},
        {"vacation.tree.root.read", V::kUnknown, false, false},
        {"vacation.tree.child.read", V::kUnknown, false, false},
        {"vacation.tree.attach", V::kUnknown, false, false}}},
      // The reservation diamond: the skip path's in-place cancellation
      // store is PROVEN (publication happens only on the sibling path);
      // the post-merge store demotes; stack/private scratch is proven on
      // every path including both branch bodies. The inlined probe's
      // loads read the shared tree and keep their barriers.
      {"vacation_reserve",
       {{"vacation.query.write", V::kPrivate, true, false},
        {"vacation.query.read", V::kPrivate, true, false},
        {"vacation.query.write2", V::kPrivate, true, false},
        {"vacation.query.read2", V::kPrivate, true, false},
        {"vacation.scratch.init", V::kStack, true, false},
        {"vacation.best.init", V::kStack, true, false},
        {"vacation.res.init.price", V::kCaptured, true, false},
        {"tfind.root.read", V::kUnknown, false, false},
        {"tfind.node.read", V::kUnknown, false, false},
        {"vacation.res.read", V::kUnknown, false, false},
        {"vacation.tree.root.read", V::kUnknown, false, false},
        {"vacation.tree.attach", V::kUnknown, false, false},
        {"vacation.best.book", V::kStack, true, false},
        {"vacation.res.cancel", V::kCaptured, true, false},
        {"vacation.best.skip", V::kStack, true, false},
        {"vacation.res.merge", V::kUnknown, false, true},
        {"vacation.best.read", V::kStack, true, false},
        {"vacation.scratch.update", V::kStack, true, false}}},
      // The dedup diamond + chain-walk loop: miss-path inits proven, the
      // post-link bump demoted, every access through the loop-carried
      // chain pointer kept.
      {"genome_dedup_insert",
       {{"genome.gene.read", V::kStatic, true, false},
        {"genome.bucket.head.read", V::kUnknown, false, false},
        {"genome.chain.key.read", V::kUnknown, false, false},
        {"genome.chain.next.read", V::kUnknown, false, false},
        {"genome.hit.bump", V::kUnknown, false, false},
        {"genome.node.init.key", V::kCaptured, true, false},
        {"genome.node.init.count", V::kCaptured, true, false},
        {"genome.node.init.next", V::kCaptured, true, false},
        {"genome.bucket.link", V::kUnknown, false, false},
        {"genome.count.bump", V::kUnknown, false, true}}},
      // The inlined allocator's return is a fresh capture, and its init
      // store joins the caller's sites. The copy-loop store is proven —
      // the new backing store is published only after the loop, and
      // publication cannot flow backwards along any path (the old linear
      // phi-back-edge rule had to demote this site).
      {"vector_grow_push",
       {{"vector.size.read", V::kUnknown, false, false},
        {"vector.cap.read", V::kUnknown, false, false},
        {"vector.data.read", V::kUnknown, false, false},
        {"vector.elem.store", V::kUnknown, false, false},
        {"pvector.init.size", V::kCaptured, true, false},
        {"vector.newcap.write", V::kCaptured, true, false},
        {"vector.olddata.read", V::kUnknown, false, false},
        {"vector.copy.read", V::kUnknown, false, false},
        {"vector.copy.init", V::kCaptured, true, false},
        {"vector.data.publish", V::kUnknown, false, false},
        {"vector.elem.post_publish", V::kUnknown, false, true},
        {"vector.size.write", V::kUnknown, false, false}}},
      {"kmeans_update",
       {{"kmeans.center.read", V::kUnknown, false, false},
        {"kmeans.center.write", V::kUnknown, false, false}}},
      {"pre_tx_buffer", {{"pretx.store", V::kUnknown, false, false}}},
      {"branch_merge",
       {{"join.both.captured", V::kCaptured, true, false},
        {"join.mixed", V::kUnknown, false, true}}},
      // The inlined helper's own store goes through the shared slot.
      {"escape_via_call",
       {{"escape.init", V::kCaptured, true, false},
        {"helper.publish", V::kUnknown, false, false},
        {"escape.after_call", V::kUnknown, false, true}}},
      // Inlined into this caller, the probe's first load reads the
      // captured object; the pointer it loads was stored from the shared
      // slot, so the second load keeps its barrier.
      {"no_escape_call",
       {{"noescape.init", V::kCaptured, true, false},
        {"tfind.root.read", V::kCaptured, true, false},
        {"tfind.node.read", V::kUnknown, false, false},
        {"noescape.after_call", V::kCaptured, true, false}}},
      {"opaque_escape",
       {{"opaque.init", V::kCaptured, true, false},
        {"opaque.after_call", V::kUnknown, false, true}}},
      {"static_data_read",
       {{"static.read", V::kStatic, true, false},
        {"static.write", V::kStatic, false, false}}},
      {"cell_roundtrip",
       {{"cell.store.inner", V::kCaptured, true, false},
        {"cell.load.inner", V::kCaptured, true, false},
        {"cell.write.through", V::kCaptured, true, false}}},
      {"cell_publish_closure",
       {{"closure.store.inner", V::kCaptured, true, false},
        {"closure.publish.outer", V::kUnknown, false, false},
        {"closure.inner.after", V::kUnknown, false, true}}},
  };
}

std::vector<KernelReport> stamp_kernel_reports() {
  // The entry list is the expectation table's (one row per entry), so a
  // kernel added with its ground truth can never silently vanish from the
  // precision report.
  const Program p = stamp_kernels();
  std::vector<KernelReport> reports;
  for (const KernelExpectation& e : stamp_kernel_expectations()) {
    const AnalysisResult r = analyze(p, e.entry);
    KernelReport rep;
    rep.entry = e.entry;
    rep.stats = r.stats();
    rep.loads = r.total(false);
    rep.stores = r.total(true);
    rep.elided_accesses = r.elided(false) + r.elided(true);
    reports.push_back(std::move(rep));
  }
  return reports;
}

std::string kernel_report_table() {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %6s %7s %8s %9s %8s\n", "kernel",
                "sites", "proven", "demoted", "accesses", "elided%");
  out += line;
  AnalysisStats totals;
  std::size_t accesses = 0, elided = 0;
  for (const KernelReport& r : stamp_kernel_reports()) {
    const std::size_t acc = r.loads + r.stores;
    std::snprintf(line, sizeof(line), "%-22s %6zu %7zu %8zu %9zu %7.1f%%\n",
                  r.entry.c_str(), r.stats.sites_total, r.stats.proven,
                  r.stats.demoted, acc,
                  acc == 0 ? 0.0
                           : 100.0 * static_cast<double>(r.elided_accesses) /
                                 static_cast<double>(acc));
    out += line;
    totals.sites_total += r.stats.sites_total;
    totals.proven += r.stats.proven;
    totals.demoted += r.stats.demoted;
    accesses += acc;
    elided += r.elided_accesses;
  }
  std::snprintf(line, sizeof(line), "%-22s %6zu %7zu %8zu %9zu %7.1f%%\n",
                "ALL", totals.sites_total, totals.proven, totals.demoted,
                accesses,
                accesses == 0 ? 0.0
                              : 100.0 * static_cast<double>(elided) /
                                    static_cast<double>(accesses));
  out += line;
  return out;
}

}  // namespace cstm::txir
