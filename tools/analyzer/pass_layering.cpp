// Layering pass: enforces the module DAG over src/**'s include graph.
//
//   rank 0  common      foundations: units, rng, csv, require, threads
//   rank 1  stats       numerics on plain data
//   rank 1  obs         tracing + metrics (instrumentable from any layer)
//   rank 2  gpu, thermal  device and thermal models
//   rank 3  telemetry   sampling, counters, export (plain-data API)
//   rank 4  cluster, workloads, query  populations, campaigns, and the
//                                      streaming query plane over stores
//   rank 5  core        experiment runner, reports, CLI
//
// A file may include same-rank or lower-rank modules only; same-rank
// edges must stay acyclic (one direction per pair). Files directly
// under src/ (the gpuvar.hpp umbrella) may include anything. Modules
// not in the table are findings too: adding a layer is a deliberate
// act that updates this pass.
#include <algorithm>
#include <map>
#include <set>

#include "passes.hpp"
#include "core.hpp"
#include "index.hpp"

namespace gpuvar::analyzer {

namespace {

const std::map<std::string, int>& module_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},   {"stats", 1},   {"obs", 1},
      {"gpu", 2},      {"thermal", 2},
      {"telemetry", 3}, {"cluster", 4}, {"workloads", 4},
      {"query", 4},    {"core", 5}};
  return kRanks;
}

int rank_of(const std::string& module) {
  const auto it = module_ranks().find(module);
  return it == module_ranks().end() ? -1 : it->second;
}

/// Module of a quoted include like "common/units.hpp"; "" when the
/// include has no directory (a sibling include).
std::string include_module(const std::string& target) {
  const auto slash = target.find('/');
  return slash == std::string::npos ? "" : target.substr(0, slash);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct Edge {
  std::string to;
  int line;
};

/// Emits one include-cycle finding per back edge found by a DFS over
/// the file-level include graph (a clean tree has none).
void find_file_cycles(
    const std::map<std::string, std::vector<Edge>>& graph,
    std::vector<Finding>& findings) {
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [node, _] : graph) color[node] = Color::kWhite;

  // Iterative DFS keeping the gray path so the cycle can be printed.
  for (const auto& [start, _] : graph) {
    if (color[start] != Color::kWhite) continue;
    struct Frame {
      std::string node;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> stack{{start}};
    color[start] = Color::kGray;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const auto git = graph.find(fr.node);
      if (git == graph.end() || fr.next_edge >= git->second.size()) {
        color[fr.node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const Edge& e = git->second[fr.next_edge++];
      if (!color.count(e.to)) continue;  // include of a non-src file
      if (color[e.to] == Color::kGray) {
        // Back edge: the gray path from e.to to fr.node plus this edge
        // closes the cycle.
        std::string path = e.to;
        bool in_cycle = false;
        for (const auto& f2 : stack) {
          if (f2.node == e.to) in_cycle = true;
          if (in_cycle && f2.node != e.to) path += " -> " + f2.node;
        }
        path += " -> " + e.to;
        findings.push_back({fr.node, e.line, "include-cycle",
                            "include cycle: " + path});
      } else if (color[e.to] == Color::kWhite) {
        color[e.to] = Color::kGray;
        stack.push_back({e.to});
      }
    }
  }
}

}  // namespace

void run_layering_pass(const Tree& tree, std::vector<Finding>& findings) {
  std::map<std::string, std::vector<Edge>> file_graph;
  std::map<std::string, std::set<std::string>> module_edges;

  for (const auto& f : tree.files) {
    if (!f.in_src()) continue;
    // Files directly under src/ (the umbrella header) sit above every
    // layer: no rank restriction, but they still join cycle detection.
    const bool umbrella = f.module.empty();
    const int own_rank = umbrella ? 1000 : rank_of(f.module);
    if (!umbrella && own_rank < 0) {
      findings.push_back(
          {f.rel, 1, "unknown-module",
           "src/" + f.module +
               "/ is not a registered layer; add it to the DAG in "
               "tools/analyzer/pass_layering.cpp (a deliberate act) or "
               "move the file"});
    }

    for (const auto& inc : f.includes) {
      const bool in_src_tree =
          !inc.resolved.empty() && starts_with(inc.resolved, "src/");
      if (in_src_tree) {
        file_graph[f.rel].push_back({inc.resolved, inc.line});
      }
      const std::string tm = include_module(inc.target);
      if (tm.empty() || !in_src_tree) continue;
      const int target_rank = rank_of(tm);
      if (target_rank < 0) continue;  // flagged at the file itself
      if (own_rank >= 0 && target_rank > own_rank) {
        findings.push_back(
            {f.rel, inc.line, "upward-include",
             "layer '" + f.module + "' (rank " + std::to_string(own_rank) +
                 ") must not include '" + inc.target + "' from layer '" +
                 tm + "' (rank " + std::to_string(target_rank) +
                 "): dependencies point down the stack only"});
      }
      // Only legal (non-upward) edges join the module graph: an upward
      // include is already its own finding, and the cycle check targets
      // same-rank pairs that point at each other.
      if (!umbrella && tm != f.module && own_rank >= 0 &&
          target_rank <= own_rank) {
        module_edges[f.module].insert(tm);
      }
    }
  }

  find_file_cycles(file_graph, findings);

  // Same-rank module pairs may depend on each other in one direction
  // only; a mutual edge is a module-level cycle even when no single
  // file chain closes it.
  for (const auto& [a, outs] : module_edges) {
    for (const auto& b : outs) {
      if (a < b && module_edges.count(b) && module_edges.at(b).count(a)) {
        findings.push_back(
            {"src/" + a, 1, "include-cycle",
             "module-level include cycle: " + a + " <-> " + b +
                 " (pick one direction and move shared types down a "
                 "layer)"});
      }
    }
  }
}

void write_layering_dot(const Tree& tree, std::ostream& out) {
  // Collect nodes and the module-level edge multiset, then emit both
  // from explicitly sorted vectors: determinism of this dump is a
  // structural property of the emission loop, not a side effect of
  // whichever container happened to hold the data.
  std::map<std::pair<std::string, std::string>, int> edge_counts;
  std::set<std::string> module_set;
  for (const auto& f : tree.files) {
    if (!f.in_src() || f.module.empty()) continue;
    module_set.insert(f.module);
    for (const auto& inc : f.includes) {
      const std::string tm = include_module(inc.target);
      if (tm.empty() || tm == f.module) continue;
      if (inc.resolved.empty() || !starts_with(inc.resolved, "src/")) {
        continue;
      }
      ++edge_counts[{f.module, tm}];
    }
  }

  std::vector<std::string> modules(module_set.begin(), module_set.end());
  std::sort(modules.begin(), modules.end());
  struct DotEdge {
    std::string from, to;
    int count;
  };
  std::vector<DotEdge> edges;
  edges.reserve(edge_counts.size());
  for (const auto& [edge, count] : edge_counts) {
    edges.push_back({edge.first, edge.second, count});
  }
  std::sort(edges.begin(), edges.end(),
            [](const DotEdge& a, const DotEdge& b) {
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });

  out << "// Module-level include graph of src/**, generated by\n"
         "//   gpuvar-analyzer <root> --dot <file>\n"
         "// Edges point from includer down to includee; edge labels\n"
         "// count the #include directives. Same rank = same row.\n"
         "digraph gpuvar_layers {\n"
         "  rankdir=BT;\n"
         "  node [shape=box, fontname=\"Helvetica\"];\n";
  std::map<int, std::vector<std::string>> by_rank;
  for (const auto& m : modules) by_rank[rank_of(m)].push_back(m);
  for (const auto& [rank, mods] : by_rank) {
    out << "  { rank=same;";
    for (const auto& m : mods) out << " \"" << m << "\";";
    out << " }  // rank " << rank << "\n";
  }
  for (const auto& e : edges) {
    out << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\""
        << e.count << "\"];\n";
  }
  out << "}\n";

  // Second graph: the header-level include graph, the granularity the
  // include-hygiene passes actually shrink. The module projection
  // above stays near-constant under cleanup (the module DAG was
  // already tight); unused-include deletions and forward-declaration
  // replacements show up here, as fewer file edges and a smaller
  // rebuild fan-out.
  std::vector<std::pair<std::string, std::string>> hdr_edges;
  for (const auto& f : tree.files) {
    if (!f.in_src() || !f.header) continue;
    for (const auto& inc : f.includes) {
      if (inc.resolved.empty() || !starts_with(inc.resolved, "src/")) {
        continue;
      }
      hdr_edges.emplace_back(f.rel.substr(4), inc.resolved.substr(4));
    }
  }
  std::sort(hdr_edges.begin(), hdr_edges.end());
  hdr_edges.erase(std::unique(hdr_edges.begin(), hdr_edges.end()),
                  hdr_edges.end());
  out << "\n// Header include graph of src/** (" << hdr_edges.size()
      << " edges): every edge is one #include of a project header by a\n"
         "// header, i.e. interface coupling that multiplies across "
         "consumers.\n"
         "digraph gpuvar_headers {\n"
         "  rankdir=BT;\n"
         "  node [shape=box, fontsize=9, fontname=\"Helvetica\"];\n";
  for (const auto& [from, to] : hdr_edges) {
    out << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  out << "}\n";
}

}  // namespace gpuvar::analyzer
