/**
 * @file
 * Template explorer: the paper's template-based log discovery workflow
 * (Sections 4.3, 7.1).
 *
 * Extracts a template library from a log with the FT-tree method,
 * prints the library, converts templates to union-of-intersections
 * queries, and runs them through the accelerator — including a batched
 * run of several templates in one pass.
 *
 * Usage: template_explorer [dataset-name] (BGL2, Liberty2, Spirit2,
 * Thunderbird; default BGL2)
 */
#include <cstdio>
#include <string>

#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/log_generator.h"
#include "templates/ft_tree.h"

using namespace mithril;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "BGL2";
    loggen::LogGenerator gen(loggen::datasetByName(name));
    std::string text = gen.generate(4 << 20);
    std::printf("dataset %s: %s synthetic log text\n", name.c_str(),
                humanBytes(static_cast<double>(text.size())).c_str());

    // Extract the template library with FT-tree.
    templates::FtTreeConfig cfg;
    cfg.max_depth = 8;
    templates::FtTree tree = templates::FtTree::build(text, cfg);
    auto tpls = tree.extractTemplates();
    std::printf("FT-tree: %zu templates from %zu tree nodes\n\n",
                tpls.size(), tree.nodeCount());

    for (size_t i = 0; i < tpls.size() && i < 10; ++i) {
        std::string tokens, negs;
        for (const std::string &t : tpls[i].tokens) {
            tokens += t + " ";
        }
        for (const std::string &n : tpls[i].negations) {
            negs += "!" + n + " ";
        }
        std::printf("  template %2zu (support %6llu): %s%s\n", i,
                    static_cast<unsigned long long>(tpls[i].support),
                    tokens.c_str(), negs.c_str());
    }
    if (tpls.size() > 10) {
        std::printf("  ... and %zu more\n", tpls.size() - 10);
    }

    // Ingest and run template queries on the accelerator.
    core::MithriLog system;
    if (!system.ingestText(text).isOk() || !system.flush().isOk()) {
        return 1;
    }

    std::printf("\nper-template retrieval (first 5):\n");
    for (size_t i = 0; i < tpls.size() && i < 5; ++i) {
        query::Query q = templates::templateToQuery(tpls[i]);
        core::QueryResult result;
        Status st = system.run(q, &result);
        if (!st.isOk()) {
            std::printf("  template %zu: %s\n", i,
                        st.toString().c_str());
            continue;
        }
        std::printf("  template %zu -> %llu lines in %.3f ms "
                    "(query: %s)\n",
                    i,
                    static_cast<unsigned long long>(result.matched_lines),
                    result.breakdown.total_time.toSeconds() * 1e3,
                    q.toString().substr(0, 60).c_str());
    }

    // Batched execution: up to 8 templates in one accelerator pass.
    size_t n = std::min<size_t>(8, tpls.size());
    query::Query joined =
        templates::templatesToQuery(std::span(tpls.data(), n));
    core::QueryResult result;
    Status st = system.run(joined, &result);
    if (st.isOk()) {
        std::printf("\nbatched %zu templates in one pass: %llu lines, "
                    "%.3f ms modeled\n",
                    n,
                    static_cast<unsigned long long>(result.matched_lines),
                    result.breakdown.total_time.toSeconds() * 1e3);
    } else {
        std::printf("\nbatched compile failed (%s); templates too "
                    "large for one program\n", st.toString().c_str());
    }
    return 0;
}
