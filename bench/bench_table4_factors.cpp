// Table 4: documents returned for the query "age blood abnormalities" at
// cosine >= 0.40 with k = 2, 4 and 8 factors, printed beside the paper's
// published lists.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsi;
  bench::StatsSession session("table4_factors");
  bench::banner("Table 4",
                "Returned documents (cosine >= .40) for k = 2, 4, 8 "
                "factors.");

  for (int k : {2, 4, 8}) {
    auto space = bench::paper_space(k);
    core::SearchOptions opts;
    opts.min_cosine = 0.40;
    auto ranked = core::retrieve(space, bench::paper_query(), opts);
    const auto& paper = data::table4_ranking(k);

    util::TextTable table({"rank", "ours", "cos", "paper", "cos"});
    const std::size_t rows = std::max(ranked.size(), paper.size());
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<std::string> row = {std::to_string(i + 1)};
      if (i < ranked.size()) {
        row.push_back(bench::med_label(ranked[i].doc));
        row.push_back(util::fmt(ranked[i].cosine, 2));
      } else {
        row.push_back("-");
        row.push_back("");
      }
      if (i < paper.size()) {
        row.push_back(paper[i].label);
        row.push_back(util::fmt(paper[i].cosine, 2));
      } else {
        row.push_back("-");
        row.push_back("");
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout, "k = " + std::to_string(k) + ":");
    std::cout << "returned: " << ranked.size() << " docs (paper: "
              << paper.size() << ")\n\n";
  }

  std::cout << "Shape checks the paper makes with this table:\n"
               "  * the returned set shrinks as k grows (A_k reconstructs A "
               "more exactly);\n"
               "  * cosine values for the same document vary substantially "
               "with k, so the\n    cosine is a rank-ordering device, not "
               "an absolute relevance measure;\n"
               "  * {M8, M12, M10} survive at k = 8.\n";
  return 0;
}
