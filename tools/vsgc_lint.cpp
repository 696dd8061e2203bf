// vsgc_lint — determinism, protocol-hygiene, and architecture-conformance
// static analysis for this repo.
//
// Usage:
//   vsgc_lint [--root DIR] [--json FILE] [--deps-json FILE] [--dot FILE]
//             [--ledger FILE] [--list-rules] [FILE...]
//
// With no FILE arguments, walks DIR/{src,tools,bench,tests} (default: the
// current directory) and lints every .hpp/.cpp in sorted order. Explicit FILE
// arguments are linted as paths relative to --root, so rule scoping (which
// directories the determinism rules cover) still applies.
//
// --deps-json writes the include-graph/sim-purity artifact (LINT_deps.json),
// --dot the Graphviz module-layer diagram, and --ledger overrides the
// sim-purity ratchet ledger (default: ROOT/tools/sim_purity_ledger.txt in
// tree mode).
//
// Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage error.
// ci.sh runs this before the build as a hard gate; --json writes the
// machine-readable artifact that tools/validate_bench_json schema-checks.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/linter.hpp"
#include "obs/json_codec.hpp"

namespace {

constexpr auto kPretty = vsgc::obs::JsonStyle::kPretty;

int usage() {
  std::cerr << "usage: vsgc_lint [--root DIR] [--json FILE] "
               "[--deps-json FILE] [--dot FILE] [--ledger FILE] "
               "[--list-rules] [FILE...]\n";
  return 2;
}

bool slurp(const std::filesystem::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_out;
  std::string deps_json_out;
  std::string dot_out;
  std::string ledger_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--deps-json" && i + 1 < argc) {
      deps_json_out = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_out = argv[++i];
    } else if (arg == "--ledger" && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const vsgc::lint::RuleInfo& r : vsgc::lint::kRules) {
        std::cout << r.id << "\n    " << r.summary << "\n";
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      files.push_back(arg);
    }
  }

  vsgc::lint::Linter linter;
  if (!ledger_path.empty()) {
    std::string text;
    if (!slurp(ledger_path, text)) {
      std::cerr << "vsgc_lint: cannot read ledger " << ledger_path << "\n";
      return 2;
    }
    linter.set_sim_ledger(ledger_path, text);
  }
  if (files.empty()) {
    vsgc::lint::lint_tree(linter, root);
  } else {
    for (const std::string& rel : files) {
      std::string text;
      if (!slurp(std::filesystem::path(root) / rel, text)) {
        std::cerr << "vsgc_lint: cannot read " << rel << "\n";
        return 2;
      }
      linter.lint_source(rel, text);
    }
    linter.finalize();
  }

  for (const vsgc::lint::Finding& f : linter.findings()) {
    if (f.suppressed) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule
                << "] suppressed — " << f.justification << "\n";
    } else {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  std::cout << "vsgc_lint: " << linter.files_scanned() << " files, "
            << linter.unsuppressed_count() << " finding(s), "
            << linter.suppressed_count() << " suppressed\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::cerr << "vsgc_lint: cannot write " << json_out << "\n";
      return 2;
    }
    out << vsgc::obs::to_json(linter.to_json(root), kPretty) << "\n";
  }
  if (!deps_json_out.empty()) {
    std::ofstream out(deps_json_out, std::ios::binary);
    if (!out) {
      std::cerr << "vsgc_lint: cannot write " << deps_json_out << "\n";
      return 2;
    }
    out << vsgc::obs::to_json(linter.deps_json(root), kPretty) << "\n";
  }
  if (!dot_out.empty()) {
    std::ofstream out(dot_out, std::ios::binary);
    if (!out) {
      std::cerr << "vsgc_lint: cannot write " << dot_out << "\n";
      return 2;
    }
    out << linter.deps_dot();
  }
  return linter.unsuppressed_count() == 0 ? 0 : 1;
}
