#include "txir/site_table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "txir/capture_analysis.hpp"
#include "txir/ir.hpp"

namespace cstm::txir {

namespace {

const char* verdict_enumerator(Verdict v) {
  switch (v) {
    case Verdict::kUnknown: return "Verdict::kUnknown";
    case Verdict::kCaptured: return "Verdict::kCaptured";
    case Verdict::kStack: return "Verdict::kStack";
    case Verdict::kStatic: return "Verdict::kStatic";
    case Verdict::kPrivate: return "Verdict::kPrivate";
  }
  return "Verdict::kUnknown";
}

}  // namespace

std::vector<SiteSpec> site_specs() {
  // Emission order is the determinism contract: container groups in
  // containers.hpp order, then the STAMP apps in src/stamp/ order.
  // Append new rows at the end of their group; never sort.
  return {
      // ---- containers/txlist.hpp -------------------------------------
      {"list_sites", "kValue", "list.value", true, "iter_loop",
       "iter.node.next",
       "Node payload: shared once linked; reached through loaded pointers."},
      {"list_sites", "kNext", "list.next", true, "iter_loop",
       "iter.node.next",
       "Link traversal (STAMP TM_SHARED_READ of node->next)."},
      {"list_sites", "kSize", "list.size", true, "", "",
       "List size header word: a shared counter."},
      {"list_sites", "kIter", "list.iter", false, "iter_loop", "iter.init",
       "Iterator state; sound only when the iterator is declared inside "
       "the atomic block (Figure 1(a))."},

      // ---- containers/txmap.hpp (treap) ------------------------------
      {"map_sites", "kKey", "map.key", true, "vacation_update_add",
       "vacation.tree.child.read",
       "Tree-node field reached through the shared root probe."},
      {"map_sites", "kValue", "map.value", true, "vacation_update_add",
       "vacation.tree.child.read",
       "Tree-node field reached through the shared root probe."},
      {"map_sites", "kPrio", "map.prio", true, "vacation_update_add",
       "vacation.tree.child.read",
       "Treap priority: node field, same access profile as key/value."},
      {"map_sites", "kChild", "map.child", true, "vacation_update_add",
       "vacation.tree.child.read",
       "Child links: structural writes/reads on the shared tree."},
      {"map_sites", "kRoot", "map.root", true, "vacation_update_add",
       "vacation.tree.root.read", "Root pointer in the shared map header."},
      {"map_sites", "kSize", "map.size", true, "", "",
       "Map size header word: a shared counter."},

      // ---- containers/txvector.hpp -----------------------------------
      {"vector_sites", "kData", "vector.data", true, "vector_grow_push",
       "vector.elem.store",
       "Element slot in the live backing store (the grow-copy into fresh "
       "memory routes through tspan::init instead)."},
      {"vector_sites", "kMeta", "vector.meta", true, "vector_grow_push",
       "vector.size.read", "size/capacity/data header words: shared."},

      // ---- containers/txhashtable.hpp --------------------------------
      {"hash_sites", "kKey", "hashtable.key", true, "genome_dedup_insert",
       "genome.chain.key.read",
       "Chain-node key probed during the bucket walk."},
      {"hash_sites", "kValue", "hashtable.value", true,
       "genome_dedup_insert", "genome.hit.bump",
       "Chain-node value: the hit-path bump targets a node reached "
       "through the shared chain."},
      {"hash_sites", "kNext", "hashtable.next", true, "genome_dedup_insert",
       "genome.chain.next.read",
       "Chain link followed around the bucket-walk loop."},
      {"hash_sites", "kBucket", "hashtable.bucket", true,
       "genome_dedup_insert", "genome.bucket.head.read",
       "Bucket head slot in the shared bucket array."},
      {"hash_sites", "kSize", "hashtable.size", true, "", "",
       "Table size header word: a shared counter."},

      // ---- containers/txbitmap.hpp -----------------------------------
      {"bitmap_sites", "kWord", "bitmap.word", true, "", "",
       "Pre-allocated shared word array (claim-exactly-once semantics): "
       "nothing to capture."},

      // ---- containers/txheap.hpp -------------------------------------
      {"heap_sites", "kData", "heap.data", true, "vector_grow_push",
       "vector.elem.store",
       "Array-backed heap: shares the vector's element-slot profile "
       "(grow-copy goes through tspan::init)."},
      {"heap_sites", "kMeta", "heap.meta", true, "vector_grow_push",
       "vector.size.read", "size/capacity/data header words: shared."},

      // ---- containers/txqueue.hpp ------------------------------------
      {"queue_sites", "kValue", "queue.value", true, "", "",
       "Node payload read at pop time through the shared head pointer "
       "(enqueue inits route through tfield::init)."},
      {"queue_sites", "kNext", "queue.next", true, "iter_loop",
       "iter.node.next", "Node link followed through loaded pointers."},
      {"queue_sites", "kLink", "queue.link", true, "list_insert",
       "list.link",
       "Publication store linking a fresh node into the shared structure."},
      {"queue_sites", "kSize", "queue.size", true, "", "",
       "Queue size header word: a shared counter."},

      // ---- stamp/bayes ----------------------------------------------
      {"stamp::bayes_sites", "kCounter", "bayes.counter", true, "", "",
       "Shared task/score counters."},
      {"stamp::bayes_sites", "kQueryVec", "bayes.query.vec", false,
       "vacation_reserve", "vacation.query.write",
       "Thread-local query vector (Figure 1(b)) registered with "
       "add_private_memory_block; the analysis trusts the annotation."},

      // ---- stamp/ssca2 ----------------------------------------------
      {"stamp::ssca2_sites", "kAdj", "ssca2.adjacency", true, "", "",
       "Tiny transactions over pre-allocated shared arrays: the "
       "nothing-to-elide end of Fig. 8."},

      // ---- stamp/kmeans ---------------------------------------------
      {"stamp::kmeans_sites", "kAccum", "kmeans.accum", true,
       "kmeans_update", "kmeans.center.write",
       "Shared new-center accumulators: zero capture opportunity "
       "(Fig. 8), so runtime capture checks are pure overhead here."},

      // ---- stamp/genome ---------------------------------------------
      {"stamp::genome_sites", "kMatch", "genome.match", true, "", "",
       "Phase-2 match counter: shared."},

      // ---- stamp/vacation -------------------------------------------
      {"stamp::vacation_sites", "kResField", "vacation.res.field", true,
       "vacation_reserve", "vacation.res.read",
       "Reservation fields on records already attached to the shared "
       "trees (fresh records' inits route through tfield::init)."},
      {"stamp::vacation_sites", "kCustField", "vacation.cust.field", true,
       "", "", "Customer records: shared once registered."},
      {"stamp::vacation_sites", "kQueryVec", "vacation.query.vec", false,
       "vacation_reserve", "vacation.query.write",
       "Thread-local query vector (Figure 1(b)) registered with "
       "add_private_memory_block; elided statically instead of via the "
       "runtime registry check."},

      // ---- stamp/intruder -------------------------------------------
      {"stamp::intruder_sites", "kFlowField", "intruder.flow.field", true,
       "", "",
       "Flow-state fields reached through the shared reassembly map."},
      {"stamp::intruder_sites", "kCounter", "intruder.counter", true, "",
       "", "Shared attack/fragment counters."},

      // ---- stamp/labyrinth ------------------------------------------
      {"stamp::labyrinth_sites", "kGrid", "labyrinth.grid", true, "", "",
       "Shared grid claims: the zero-redundant-barriers benchmark "
       "(Fig. 8)."},
      {"stamp::labyrinth_sites", "kCounter", "labyrinth.counter", true, "",
       "", "Shared routed/failed counters."},

      // ---- stamp/yada -----------------------------------------------
      {"stamp::yada_sites", "kElemField", "yada.elem.field", true, "", "",
       "Element fields reached through the shared map/heap (fresh "
       "replacements' inits route through tfield::init)."},
      {"stamp::yada_sites", "kCounter", "yada.counter", true, "", "",
       "Shared refinement counters."},
  };
}

std::vector<ResolvedSite> resolve_site_verdicts(
    const Program& program, const std::vector<SiteSpec>& specs,
    std::vector<std::string>* errors) {
  // One analysis run per distinct entry — the same analyze(program, entry)
  // stamp_kernel_reports() uses, so the emitted verdicts and the precision
  // table always agree.
  std::map<std::string, AnalysisResult> by_entry;
  std::vector<ResolvedSite> out;
  out.reserve(specs.size());
  for (const SiteSpec& s : specs) {
    ResolvedSite r{s, Verdict::kUnknown};
    if (!s.entry.empty()) {
      if (program.find(s.entry) == nullptr) {
        if (errors != nullptr) {
          errors->push_back(s.ns + "::" + s.constant + ": evidence entry '" +
                            s.entry + "' is not in the kernel corpus");
        }
      } else {
        auto it = by_entry.find(s.entry);
        if (it == by_entry.end()) {
          it = by_entry.emplace(s.entry, analyze(program, s.entry)).first;
        }
        const AnalysisResult& a = it->second;
        const bool site_exists =
            std::any_of(a.barriers.begin(), a.barriers.end(),
                        [&](const AccessVerdict& b) {
                          return b.site == s.kernel_site;
                        });
        if (!site_exists) {
          if (errors != nullptr) {
            errors->push_back(s.ns + "::" + s.constant +
                              ": evidence site '" + s.kernel_site +
                              "' does not occur in kernel '" + s.entry +
                              "' (after inlining)");
          }
        } else {
          r.verdict = a.site_verdict(s.kernel_site);
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ResolvedSite> resolve_site_verdicts(
    std::vector<std::string>* errors) {
  return resolve_site_verdicts(stamp_kernels(), site_specs(), errors);
}

std::string render_site_verdicts_header(
    const std::vector<ResolvedSite>& resolved) {
  std::ostringstream o;
  o << "// generated/site_verdicts.hpp — the single source of truth for "
       "the Site\n"
       "// verdicts of src/containers/ and src/stamp/.\n"
       "//\n"
       "// GENERATED by txir_sitegen from the spec table in "
       "src/txir/site_table.cpp\n"
       "// and the kernel corpus in src/txir/kernels.cpp. DO NOT EDIT BY "
       "HAND:\n"
       "// edits are overwritten by the next regeneration, and the "
       "staleness gate\n"
       "// (ctest `sitegen_check`, CI step `codegen-drift`, "
       "scripts/check.sh) fails\n"
       "// on any byte of drift between this file and a fresh render.\n"
       "//\n"
       "// Regenerate after changing the corpus, the analysis, or the "
       "spec table:\n"
       "//   cmake --build build --target sitegen\n"
       "// or equivalently:\n"
       "//   ./build/txir_sitegen --out generated/site_verdicts.hpp\n"
       "// Verify without writing (the gate CI runs):\n"
       "//   ./build/txir_sitegen --check generated/site_verdicts.hpp\n"
       "//\n"
       "// Every constant cites its evidence: the kernel entry + site "
       "label whose\n"
       "// analysis verdict (flow-sensitive capture analysis, inline "
       "depth 2 — the\n"
       "// paper's §3.2 configuration) it carries. `evidence: none` rows "
       "are the\n"
       "// corpus backlog: no kernel models them yet, so they stay "
       "conservatively\n"
       "// unknown until one does — at which point regeneration upgrades "
       "them and\n"
       "// shipped elision% rises with the corpus.\n"
       "//\n"
       "// Corpus precision at this configuration:\n"
       "//\n";
  {
    // The report table rides along as a comment so ANY precision movement
    // (not just a verdict flip) shows up in the drift diff.
    std::istringstream table(kernel_report_table());
    std::string line;
    while (std::getline(table, line)) {
      o << "//   " << line << "\n";
    }
  }
  o << "#pragma once\n"
       "\n"
       "#include \"stm/site.hpp\"\n"
       "\n"
       "// clang-format off\n"
       "namespace cstm {\n";

  std::string open_ns;
  for (const ResolvedSite& r : resolved) {
    const SiteSpec& s = r.spec;
    if (s.ns != open_ns) {
      if (!open_ns.empty()) {
        o << "}  // namespace " << open_ns << "\n";
      }
      o << "\n"
        << "namespace " << s.ns << " {\n";
      open_ns = s.ns;
    }
    o << "// " << s.comment << "\n";
    if (s.entry.empty()) {
      o << "//   evidence: none — conservative unknown, barrier stays\n";
    } else {
      o << "//   evidence: " << s.entry << " : " << s.kernel_site << " -> "
        << verdict_name(r.verdict) << "\n";
    }
    o << "inline constexpr Site " << s.constant << "{\"" << s.site_name
      << "\", " << (s.manual ? "true" : "false") << ", "
      << verdict_enumerator(r.verdict) << "};\n";
  }
  if (!open_ns.empty()) {
    o << "}  // namespace " << open_ns << "\n";
  }
  o << "\n"
       "}  // namespace cstm\n"
       "// clang-format on\n";
  return o.str();
}

std::string render_site_verdicts_header() {
  std::vector<std::string> errors;
  const std::vector<ResolvedSite> resolved = resolve_site_verdicts(&errors);
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "site_table: %s\n", e.c_str());
    }
    std::abort();  // a spec table typo must never emit a silent kUnknown
  }
  return render_site_verdicts_header(resolved);
}

std::vector<std::string> diff_lines(const std::string& expected,
                                    const std::string& actual) {
  const auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> a = split(expected);
  const std::vector<std::string> b = split(actual);
  if (a == b && expected == actual) return {};

  // Classic LCS table; both sides are header-sized (a few hundred lines).
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1,
                                            std::vector<std::size_t>(m + 1));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::vector<std::string> out;
  std::size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      ++i, ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      out.push_back("-" + a[i++]);
    } else {
      out.push_back("+" + b[j++]);
    }
  }
  while (i < n) out.push_back("-" + a[i++]);
  while (j < m) out.push_back("+" + b[j++]);
  if (out.empty()) {
    // Same lines but different trailing bytes (e.g. missing final
    // newline): still drift.
    out.push_back("-<expected and actual differ in trailing whitespace>");
  }
  return out;
}

}  // namespace cstm::txir
