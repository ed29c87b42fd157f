#include "model.h"

namespace perfbench {

std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> out;
  size_t begin = 0;
  while (true) {
    size_t end = line.find('\t', begin);
    if (end == std::string_view::npos) {
      out.push_back(line.substr(begin));
      return out;
    }
    out.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
}

namespace {

bool SplitAttr(std::string_view field, std::string* key, std::string* value) {
  size_t eq = field.find('=');
  if (eq == std::string_view::npos) return false;
  *key = std::string(field.substr(0, eq));
  *value = std::string(field.substr(eq + 1));
  return true;
}

}  // namespace

std::optional<GraphModel> GraphModel::Parse(std::string_view tsv,
                                            std::string* error) {
  GraphModel m;
  bool ok = true;
  size_t lineno = 0;
  ForEachLine(tsv, [&](std::string_view line) {
    ++lineno;
    if (!ok || line.empty() || line[0] == '#') return;
    auto f = SplitTabs(line);
    std::string where = "graph line " + std::to_string(lineno);
    if (line.find('\\') != std::string_view::npos) {
      *error = where + ": escaped field (unsupported by the model)";
      ok = false;
    } else if (f[0] == "N" && f.size() >= 3) {
      std::string name(f[1]);
      Node node;
      node.label = std::string(f[2]);
      for (size_t i = 3; i < f.size() && ok; ++i) {
        std::string k, v;
        ok = SplitAttr(f[i], &k, &v);
        if (!ok) *error = where + ": attribute without '='";
        node.attrs[k] = v;
      }
      if (!m.nodes_.emplace(name, std::move(node)).second) {
        *error = where + ": duplicate node " + name;
        ok = false;
      }
      m.order_.push_back(std::move(name));
    } else if (f[0] == "E" && f.size() == 4) {
      EdgeKey e{std::string(f[1]), std::string(f[2]), std::string(f[3])};
      if (!m.nodes_.contains(std::get<0>(e)) ||
          !m.nodes_.contains(std::get<1>(e))) {
        *error = where + ": edge names an unknown node";
        ok = false;
        return;
      }
      ++m.edges_[e];
      m.base_edges_.push_back(std::move(e));
    } else {
      *error = where + ": unexpected record";
      ok = false;
    }
  });
  if (!ok) return std::nullopt;
  return m;
}

bool GraphModel::Apply(std::string_view batch, std::string* error) {
  bool ok = true;
  ForEachLine(batch, [&](std::string_view line) {
    if (!ok || line.empty() || line[0] == '#') return;
    auto f = SplitTabs(line);
    if ((f[0] == "E+" || f[0] == "E-") && f.size() == 4) {
      EdgeKey e{std::string(f[1]), std::string(f[2]), std::string(f[3])};
      if (!nodes_.contains(std::get<0>(e)) ||
          !nodes_.contains(std::get<1>(e))) {
        *error = "delta edge names an unknown node: " + std::string(line);
        ok = false;
      } else if (f[0] == "E+") {
        ++edges_[e];
      } else {
        auto it = edges_.find(e);
        if (it == edges_.end()) {
          *error = "delta deletes a missing edge: " + std::string(line);
          ok = false;
        } else if (--it->second == 0) {
          edges_.erase(it);
        }
      }
    } else if (f[0] == "A" && f.size() >= 3) {
      auto it = nodes_.find(std::string(f[1]));
      if (it == nodes_.end()) {
        *error = "delta sets an attribute of an unknown node";
        ok = false;
        return;
      }
      for (size_t i = 2; i < f.size() && ok; ++i) {
        std::string k, v;
        ok = SplitAttr(f[i], &k, &v);
        if (!ok) *error = "delta attribute without '='";
        it->second.attrs[k] = v;
      }
    } else {
      *error = "unexpected delta record: " + std::string(line);
      ok = false;
    }
  });
  return ok;
}

std::vector<std::string> GraphModel::Diff(const gfd::PropertyGraph& g,
                                          size_t limit) const {
  std::vector<std::string> out;
  auto note = [&](std::string msg) {
    if (out.size() < limit) out.push_back(std::move(msg));
  };
  auto name = [&](gfd::NodeId v) {
    const std::string& n = g.NodeName(v);
    return n.empty() ? "n" + std::to_string(v) : n;
  };
  if (g.NumNodes() != nodes_.size()) {
    note("node count " + std::to_string(g.NumNodes()) + " != model " +
         std::to_string(nodes_.size()));
  }
  for (gfd::NodeId v = 0; v < g.NumNodes(); ++v) {
    auto it = nodes_.find(name(v));
    if (it == nodes_.end()) {
      note("node " + name(v) + " missing from the model");
      continue;
    }
    if (g.LabelName(g.NodeLabel(v)) != it->second.label) {
      note("node " + name(v) + " label differs");
    }
    std::map<std::string, std::string> attrs;
    for (const auto& a : g.NodeAttrs(v)) {
      attrs[g.AttrName(a.key)] = g.ValueName(a.value);
    }
    if (attrs != it->second.attrs) note("node " + name(v) + " attrs differ");
  }
  std::map<EdgeKey, int> edges;
  for (gfd::EdgeId e = 0; e < g.NumEdges(); ++e) {
    ++edges[{name(g.EdgeSrc(e)), name(g.EdgeDst(e)),
             g.LabelName(g.EdgeLabel(e))}];
  }
  if (edges != edges_) {
    size_t missing = 0, extra = 0;
    for (const auto& [e, n] : edges_) {
      auto it = edges.find(e);
      if (it == edges.end() || it->second < n) ++missing;
    }
    for (const auto& [e, n] : edges) {
      auto it = edges_.find(e);
      if (it == edges_.end() || it->second < n) ++extra;
    }
    note("edge multiset differs: " + std::to_string(missing) +
         " model edge(s) missing from the store, " + std::to_string(extra) +
         " store edge(s) not in the model");
  }
  return out;
}

}  // namespace perfbench
