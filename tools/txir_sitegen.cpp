// txir_sitegen: the analysis→codegen bridge tool.
//
// Inlines each kernel entry's calls (kInlineDepth levels), runs the
// flow-sensitive capture analysis over the result and renders
// generated/site_verdicts.hpp — the single source of truth for the Site
// verdicts src/containers/ and src/stamp/ bind into their typed fields.
// See src/txir/site_table.{hpp,cpp} for the spec table and the emitter;
// this file is only the CLI.
//
// Modes:
//   txir_sitegen --out PATH           write the header to PATH
//   txir_sitegen --check PATH         staleness gate: exit 1 + drift diff
//                                     when PATH differs from a fresh render
//   txir_sitegen --report             print the per-kernel precision table
//
// Exit codes: 0 ok / fresh, 1 stale (--check), 2 usage or I/O or an
// invalid spec table (evidence naming a kernel site that does not exist).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "txir/kernels.hpp"
#include "txir/site_table.hpp"

namespace {

using namespace cstm::txir;

int usage() {
  std::fprintf(stderr,
               "usage: txir_sitegen --out PATH | --check PATH | --report\n");
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Renders the canonical header, failing loudly (exit 2) on an invalid
/// spec table instead of emitting silently-conservative verdicts.
bool render_checked(std::string* header) {
  std::vector<std::string> errors;
  const std::vector<ResolvedSite> resolved = resolve_site_verdicts(&errors);
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "txir_sitegen: spec table error: %s\n", e.c_str());
    }
    return false;
  }
  *header = render_site_verdicts_header(resolved);
  return true;
}

int run_check(const std::string& path) {
  std::string fresh;
  if (!render_checked(&fresh)) return 2;
  std::string committed;
  if (!read_file(path, &committed)) {
    std::fprintf(stderr,
                 "txir_sitegen: --check: cannot read '%s' — generate it "
                 "first with --out\n",
                 path.c_str());
    return 1;
  }
  const std::vector<std::string> diff = diff_lines(fresh, committed);
  if (diff.empty()) {
    std::printf("txir_sitegen: %s is up to date with the kernel corpus\n",
                path.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "txir_sitegen: STALE generated header: %s\n"
               "txir_sitegen: drift vs a fresh render "
               "(-: regenerated, +: committed):\n",
               path.c_str());
  for (const std::string& line : diff) {
    std::fprintf(stderr, "  %s\n", line.c_str());
  }
  std::fprintf(stderr,
               "txir_sitegen: the analysis, the kernel corpus, and the "
               "committed Site\n"
               "txir_sitegen: verdict table have drifted apart. "
               "Regenerate and commit:\n"
               "txir_sitegen:   cmake --build build --target sitegen\n");
  return 1;
}

int run_out(const std::string& path) {
  std::string fresh;
  if (!render_checked(&fresh)) return 2;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "txir_sitegen: cannot write '%s'\n", path.c_str());
    return 2;
  }
  out << fresh;
  out.close();
  if (!out) {
    std::fprintf(stderr, "txir_sitegen: write to '%s' failed\n",
                 path.c_str());
    return 2;
  }
  std::printf("txir_sitegen: wrote %s (%zu bytes)\n", path.c_str(),
              fresh.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "--report" && argc == 2) {
    std::fputs(kernel_report_table().c_str(), stdout);
    return 0;
  }
  if (mode == "--out" && argc == 3) return run_out(argv[2]);
  if (mode == "--check" && argc == 3) return run_check(argv[2]);
  return usage();
}
