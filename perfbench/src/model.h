// The benchmark's own model of a served graph, kept apart from the code
// under test: node labels and attributes by node name, and edges as a
// multiset of (src, dst, label) name triples. It is parsed from the
// graph TSV with its own reader, advanced by the acknowledged delta
// batches in sequence order, and compared against the store's
// MaterializeCurrent() at the end of a run.
//
// The reader handles the escape-free subset of the TSV grammar
// (docs/WIRE.md); the generator refuses inputs that would need escapes.
#ifndef GFD_PERFBENCH_MODEL_H_
#define GFD_PERFBENCH_MODEL_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "graph/property_graph.h"

namespace perfbench {

class GraphModel {
 public:
  using EdgeKey = std::tuple<std::string, std::string, std::string>;
  struct Node {
    std::string label;
    std::map<std::string, std::string> attrs;
  };

  /// Parses `N` and `E` records; nullopt (and *error) on anything else.
  static std::optional<GraphModel> Parse(std::string_view tsv,
                                         std::string* error);

  /// Applies one delta batch (E+ / E- / A records). A delete of an edge
  /// the model does not hold, or an unknown node, is an error.
  bool Apply(std::string_view batch, std::string* error);

  /// Mismatches between the model and `g`, at most `limit` of them
  /// (empty = equal). Nodes are matched by name ("n<id>" when unnamed).
  std::vector<std::string> Diff(const gfd::PropertyGraph& g,
                                size_t limit) const;

  const std::map<std::string, Node>& nodes() const { return nodes_; }
  /// Node names in file order (= the loader's node ids).
  const std::vector<std::string>& order() const { return order_; }
  /// Edges in file order (the base graph only; not advanced by Apply).
  const std::vector<EdgeKey>& base_edges() const { return base_edges_; }

 private:
  std::map<std::string, Node> nodes_;
  std::vector<std::string> order_;
  std::vector<EdgeKey> base_edges_;
  std::map<EdgeKey, int> edges_;
};

/// Splits on '\t' (no unescaping; see the file comment).
std::vector<std::string_view> SplitTabs(std::string_view line);

/// Calls fn(line) for each line of `text` (without the '\n').
template <typename Fn>
void ForEachLine(std::string_view text, Fn&& fn) {
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

}  // namespace perfbench

#endif  // GFD_PERFBENCH_MODEL_H_
