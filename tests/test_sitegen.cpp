// Tests for the analysis→codegen bridge (src/txir/site_table.{hpp,cpp} +
// the txir_sitegen tool's contract):
//
//  * determinism: rendering the generated header twice is byte-identical,
//    and the emission order is the spec-table order (golden structure);
//  * staleness: the COMMITTED generated/site_verdicts.hpp matches a fresh
//    render — the same gate `txir_sitegen --check` / CI `codegen-drift`
//    enforce, here as a gtest so `ctest -L unit` catches drift too;
//  * fidelity: the Site constants the execution side actually binds (via
//    the generated header) carry exactly the verdicts the analysis
//    derives for their cited kernel evidence;
//  * negative: a corpus verdict change (or a hand edit of the generated
//    file) flips the gate red — diff_lines pinpoints the moved constant;
//  * spec-table validation: evidence rows naming nonexistent kernels or
//    site labels are reported, never silently resolved to kUnknown.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "containers/containers.hpp"
#include "stamp/vacation/vacation.hpp"
#include "txir/capture_analysis.hpp"
#include "txir/kernels.hpp"
#include "txir/site_table.hpp"

namespace cstm::txir {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Determinism / golden structure.
// ---------------------------------------------------------------------------

TEST(SiteGen, RenderIsDeterministicAcrossReruns) {
  // Two fully independent pipeline runs (fresh Program builds, fresh
  // analyses) must agree byte for byte — the property the committed-header
  // workflow rests on.
  std::vector<std::string> errors1, errors2;
  const auto r1 = resolve_site_verdicts(stamp_kernels(), site_specs(),
                                        &errors1);
  const auto r2 = resolve_site_verdicts(stamp_kernels(), site_specs(),
                                        &errors2);
  EXPECT_TRUE(errors1.empty());
  EXPECT_TRUE(errors2.empty());
  EXPECT_EQ(render_site_verdicts_header(r1), render_site_verdicts_header(r2));
}

TEST(SiteGen, RenderEmitsEverySpecInTableOrder) {
  const auto specs = site_specs();
  const std::string header = render_site_verdicts_header();
  std::size_t cursor = 0;
  for (const SiteSpec& s : specs) {
    const std::string decl = "inline constexpr Site " + s.constant + "{\"" +
                             s.site_name + "\", ";
    const std::size_t pos = header.find(decl, cursor);
    ASSERT_NE(pos, std::string::npos)
        << s.ns << "::" << s.constant << " missing or out of order";
    cursor = pos + decl.size();
  }
  // Every namespace opens exactly once (grouped emission, no split
  // namespace blocks that would make ordering ambiguous).
  std::set<std::string> seen;
  for (const SiteSpec& s : specs) {
    if (!seen.insert(s.ns).second) continue;
    const std::string open = "namespace " + s.ns + " {";
    const std::size_t first = header.find(open);
    ASSERT_NE(first, std::string::npos) << s.ns;
    EXPECT_EQ(header.find(open, first + 1), std::string::npos)
        << s.ns << " opens more than once";
  }
}

TEST(SiteGen, HeaderCarriesTheCorpusPrecisionTable) {
  // The per-kernel report rides along as a comment so that ANY analysis
  // precision movement — not just a verdict flip — shows up in the drift
  // diff and forces a deliberate regeneration.
  const std::string header = render_site_verdicts_header();
  std::istringstream table(kernel_report_table());
  std::string line;
  while (std::getline(table, line)) {
    EXPECT_NE(header.find(line), std::string::npos)
        << "report line missing from header comment: " << line;
  }
}

// ---------------------------------------------------------------------------
// The staleness gate, as a unit test against the committed file.
// ---------------------------------------------------------------------------

TEST(SiteGen, CommittedHeaderIsFresh) {
  const std::string committed =
      read_file(std::string(CSTM_SOURCE_DIR) + "/generated/site_verdicts.hpp");
  const std::string fresh = render_site_verdicts_header();
  const auto diff = diff_lines(fresh, committed);
  EXPECT_TRUE(diff.empty())
      << "generated/site_verdicts.hpp is stale; regenerate with\n"
         "  cmake --build build --target sitegen\n"
         "first drift line: "
      << (diff.empty() ? "" : diff.front());
}

// ---------------------------------------------------------------------------
// Fidelity: the bound Sites == the analysis, through the generated header.
// ---------------------------------------------------------------------------

TEST(SiteGen, BoundSiteConstantsMatchTheirCitedEvidence) {
  // For every evidence-backed spec, the verdict in the generated header
  // (which the execution side includes) is the analysis verdict of the
  // cited kernel site. This subsumes the old hand-maintained cross-check:
  // it now covers EVERY row, not a sampled few.
  const Program p = stamp_kernels();
  std::vector<std::string> errors;
  const auto resolved = resolve_site_verdicts(p, site_specs(), &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  std::size_t evidence_rows = 0;
  for (const ResolvedSite& r : resolved) {
    if (r.spec.entry.empty()) {
      EXPECT_EQ(r.verdict, Verdict::kUnknown)
          << r.spec.ns << "::" << r.spec.constant
          << ": no evidence must mean conservative unknown";
      continue;
    }
    ++evidence_rows;
    const AnalysisResult a = analyze(p, r.spec.entry);
    EXPECT_EQ(r.verdict, a.site_verdict(r.spec.kernel_site))
        << r.spec.ns << "::" << r.spec.constant;
  }
  EXPECT_GE(evidence_rows, 14u)
      << "the corpus should back a healthy share of the site inventory";
}

TEST(SiteGen, GeneratedVerdictsAreLiveInTheIncludedConstants) {
  // Spot-check through the actual included header (not the renderer): the
  // constants the containers/apps bind carry the analysis verdicts.
  EXPECT_EQ(list_sites::kIter.verdict, Verdict::kStack);
  EXPECT_FALSE(list_sites::kIter.manual);
  EXPECT_EQ(stamp::vacation_sites::kQueryVec.verdict, Verdict::kPrivate);
  EXPECT_FALSE(stamp::vacation_sites::kQueryVec.manual);
  EXPECT_EQ(stamp::bayes_sites::kQueryVec.verdict, Verdict::kPrivate);
  EXPECT_EQ(stamp::kmeans_sites::kAccum.verdict, Verdict::kUnknown);
  EXPECT_TRUE(stamp::kmeans_sites::kAccum.manual);
  EXPECT_EQ(map_sites::kRoot.verdict, Verdict::kUnknown);
  EXPECT_STREQ(map_sites::kRoot.name, "map.root");
}

TEST(SiteGen, CorpusElisionDoesNotRegress) {
  // The number the generated header ships: at least half of the corpus'
  // unique sites stay proven (the ISSUE-10 acceptance floor, up from the
  // pre-CFG pipeline's 49.2% access-level ratio).
  std::size_t sites = 0, proven = 0;
  for (const KernelReport& r : stamp_kernel_reports()) {
    sites += r.stats.sites_total;
    proven += r.stats.proven;
  }
  ASSERT_GT(sites, 0u);
  EXPECT_GE(100.0 * static_cast<double>(proven) / static_cast<double>(sites),
            50.0);
}

// ---------------------------------------------------------------------------
// Negative: drift flips the gate red.
// ---------------------------------------------------------------------------

TEST(SiteGen, HandEditedHeaderIsFlaggedWithTheExactLine) {
  const std::string fresh = render_site_verdicts_header();
  // Simulate the classic hand edit: flipping the iterator verdict back to
  // unknown (as if someone "fixed" the generated file instead of the
  // corpus).
  const std::string needle =
      "inline constexpr Site kIter{\"list.iter\", false, Verdict::kStack};";
  const std::size_t pos = fresh.find(needle);
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = fresh;
  tampered.replace(pos, needle.size(),
                   "inline constexpr Site kIter{\"list.iter\", false, "
                   "Verdict::kUnknown};");
  const auto diff = diff_lines(fresh, tampered);
  ASSERT_FALSE(diff.empty());
  bool names_the_site = false;
  for (const std::string& line : diff) {
    names_the_site = names_the_site ||
                     line.find("list.iter") != std::string::npos;
  }
  EXPECT_TRUE(names_the_site) << "drift diff must pinpoint the edited Site";
}

TEST(SiteGen, CorpusVerdictChangeFlipsTheGateRed) {
  // The other drift direction: the ANALYSIS moves (here simulated by
  // rebinding a spec's evidence to a site the analysis proves captured)
  // while the committed header stays put. The gate must go red and the
  // diff must show the verdict transition.
  const Program p = stamp_kernels();
  std::vector<SiteSpec> specs = site_specs();
  auto it = std::find_if(specs.begin(), specs.end(), [](const SiteSpec& s) {
    return s.ns == "stamp::kmeans_sites" && s.constant == "kAccum";
  });
  ASSERT_NE(it, specs.end());
  it->entry = "list_insert";
  it->kernel_site = "list.node.init.value";  // analysis: kCaptured

  std::vector<std::string> errors;
  const auto drifted = resolve_site_verdicts(p, specs, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  const std::string drifted_header = render_site_verdicts_header(drifted);
  const std::string committed = render_site_verdicts_header();

  const auto diff = diff_lines(drifted_header, committed);
  ASSERT_FALSE(diff.empty()) << "a corpus verdict change must be drift";
  bool shows_new = false, shows_old = false;
  for (const std::string& line : diff) {
    if (line.find("kmeans.accum") == std::string::npos) continue;
    shows_new = shows_new || (line[0] == '-' &&
                              line.find("Verdict::kCaptured") !=
                                  std::string::npos);
    shows_old = shows_old || (line[0] == '+' &&
                              line.find("Verdict::kUnknown") !=
                                  std::string::npos);
  }
  EXPECT_TRUE(shows_new) << "diff must show the regenerated verdict";
  EXPECT_TRUE(shows_old) << "diff must show the stale committed verdict";
}

TEST(SiteGen, DiffOfIdenticalTextsIsEmpty) {
  const std::string header = render_site_verdicts_header();
  EXPECT_TRUE(diff_lines(header, header).empty());
}

// ---------------------------------------------------------------------------
// Spec-table validation: typos fail loudly, never silently conservative.
// ---------------------------------------------------------------------------

TEST(SiteGen, UnknownEvidenceEntryIsReported) {
  std::vector<SiteSpec> specs = site_specs();
  specs.front().entry = "no_such_kernel";
  specs.front().kernel_site = "nope";
  std::vector<std::string> errors;
  (void)resolve_site_verdicts(stamp_kernels(), specs, &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("no_such_kernel"), std::string::npos);
}

TEST(SiteGen, UnknownEvidenceSiteLabelIsReported) {
  std::vector<SiteSpec> specs = site_specs();
  specs.front().entry = "iter_loop";
  specs.front().kernel_site = "iter.typo";
  std::vector<std::string> errors;
  (void)resolve_site_verdicts(stamp_kernels(), specs, &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("iter.typo"), std::string::npos);
  EXPECT_NE(errors.front().find("iter_loop"), std::string::npos);
}

TEST(SiteGen, CanonicalSpecTableValidates) {
  std::vector<std::string> errors;
  (void)resolve_site_verdicts(stamp_kernels(), site_specs(), &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

}  // namespace
}  // namespace cstm::txir
