#include "graph/serialize.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace tomo::graph {

void write_system(std::ostream& os, const MeasuredSystem& system) {
  os << "tomo-topology v1\n";
  const Graph& g = system.graph;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "node " << v << ' ' << g.node_name(v) << '\n';
  }
  for (LinkId e = 0; e < g.link_count(); ++e) {
    os << "link " << e << ' ' << g.link(e).src << ' ' << g.link(e).dst
       << '\n';
  }
  for (PathId p = 0; p < system.paths.size(); ++p) {
    os << "path " << p;
    for (LinkId e : system.paths[p].links()) os << ' ' << e;
    os << '\n';
  }
  for (std::size_t c = 0; c < system.partition.size(); ++c) {
    os << "corrset " << c;
    for (LinkId e : system.partition[c]) os << ' ' << e;
    os << '\n';
  }
}

MeasuredSystem read_system(std::istream& is) {
  MeasuredSystem system;
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) -> void {
    throw Error("topology line " + std::to_string(line_no) + ": " + what);
  };
  // The rest of a path or corrset line: ids of existing links.
  auto link_list = [&](std::istream& ls, const std::string& what) {
    std::vector<LinkId> links;
    std::string token;
    while (ls >> token) {
      LinkId e = 0;
      if (!util::parse_index(token, e)) {
        fail("malformed " + what + " line: '" + token + "' is not a link id");
      }
      if (e >= system.graph.link_count()) fail(what + " uses unknown link");
      links.push_back(e);
    }
    if (links.empty()) fail(what + " has no links");
    return links;
  };

  bool have_header = false;
  std::vector<std::vector<LinkId>> raw_paths;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // blank line
    if (!have_header) {
      std::string version;
      if (tag != "tomo-topology" || !(ls >> version) || version != "v1") {
        fail("expected header 'tomo-topology v1'");
      }
      have_header = true;
      continue;
    }
    if (tag == "node") {
      std::size_t id;
      std::string name;
      if (!util::read_index(ls, id) || !(ls >> name)) {
        fail("malformed node line");
      }
      if (id != system.graph.node_count()) fail("node ids must be dense");
      system.graph.add_node(name);
    } else if (tag == "link") {
      std::size_t id, src, dst;
      if (!util::read_index(ls, id) || !util::read_index(ls, src) ||
          !util::read_index(ls, dst)) {
        fail("malformed link line");
      }
      if (id != system.graph.link_count()) fail("link ids must be dense");
      if (src >= system.graph.node_count() ||
          dst >= system.graph.node_count()) {
        fail("link references unknown node");
      }
      system.graph.add_link(src, dst);
    } else if (tag == "path") {
      std::size_t id;
      if (!util::read_index(ls, id)) fail("malformed path line");
      if (id != raw_paths.size()) fail("path ids must be dense");
      raw_paths.push_back(link_list(ls, "path"));
    } else if (tag == "corrset") {
      std::size_t id;
      if (!util::read_index(ls, id)) fail("malformed corrset line");
      if (id != system.partition.size()) fail("corrset ids must be dense");
      system.partition.push_back(link_list(ls, "corrset"));
    } else {
      fail("unknown tag '" + tag + "'");
    }
  }
  TOMO_REQUIRE(have_header, "topology file is empty or missing its header");
  system.paths.reserve(raw_paths.size());
  for (auto& links : raw_paths) {
    system.paths.emplace_back(system.graph, std::move(links));
  }
  if (!system.partition.empty()) {
    require_partition(system.graph, system.partition);
  }
  return system;
}

void save_system(const std::string& filename, const MeasuredSystem& system) {
  std::ofstream os(filename);
  TOMO_REQUIRE(os.good(), "cannot open " + filename + " for writing");
  write_system(os, system);
  TOMO_REQUIRE(os.good(), "failed writing " + filename);
}

MeasuredSystem load_system(const std::string& filename) {
  std::ifstream is(filename);
  TOMO_REQUIRE(is.good(), "cannot open " + filename);
  return read_system(is);
}

}  // namespace tomo::graph
