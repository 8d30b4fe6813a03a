/**
 * @file
 * Anomaly scan: the intro's motivating use case — find rare, suspect
 * lines in a large log quickly.
 *
 * Extracts the template library with FT-tree, identifies the rarest
 * templates and the lines that match *no* known template (classic
 * anomaly candidates), and uses the accelerator to pull severity
 * spikes. Combines template extraction, negated queries, and the
 * time-sliced index.
 */
#include <cstdio>
#include <map>
#include <string>

#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/log_generator.h"
#include "query/parser.h"
#include "templates/ft_tree.h"

using namespace mithril;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "Spirit2";
    loggen::LogGenerator gen(loggen::datasetByName(name));
    std::string text = gen.generate(4 << 20);

    core::MithriLog system;
    if (!system.ingestText(text).isOk() || !system.flush().isOk()) {
        return 1;
    }
    std::printf("scanning %s of %s-like logs for anomalies\n\n",
                humanBytes(static_cast<double>(system.rawBytes())).c_str(),
                name.c_str());

    // 1. Severity-word spikes via the accelerator (syslog-style
    //    messages carry lowercase condition words in their bodies).
    std::printf("severity profile:\n");
    for (const char *sev :
         {"error", "failure", "failed", "panic", "timeout", "killed"}) {
        core::QueryResult r;
        if (system.run(query::Query::allOf(
                std::vector<std::string>{sev}), &r).isOk()) {
            std::printf("  %-8s %8llu lines (%.3f ms modeled)\n", sev,
                        static_cast<unsigned long long>(r.matched_lines),
                        r.breakdown.total_time.toSeconds() * 1e3);
        }
    }

    // 2. Template rarity: rare templates are anomaly candidates.
    templates::FtTree tree = templates::FtTree::build(text, {});
    auto tpls = tree.extractTemplates();
    std::map<uint64_t, size_t> by_support;
    for (size_t i = 0; i < tpls.size(); ++i) {
        by_support.emplace(tpls[i].support, i);
    }
    std::printf("\nrarest templates (library of %zu):\n", tpls.size());
    size_t shown = 0;
    for (const auto &[support, idx] : by_support) {
        if (shown++ >= 3) {
            break;
        }
        query::Query q = templates::templateToQuery(tpls[idx]);
        core::QueryResult r;
        if (system.run(q, &r).isOk() && !r.lines.empty()) {
            std::printf("  support %llu: %s\n",
                        static_cast<unsigned long long>(support),
                        r.lines[0].text.substr(0, 76).c_str());
        }
    }

    // 3. Lines matching no template: classify the unmatched residue.
    uint64_t unmatched = 0;
    forEachLine(text, [&](std::string_view line) {
        if (tree.classify(line) == SIZE_MAX) {
            ++unmatched;
        }
    });
    std::printf("\nlines outside the template library: %llu of %llu "
                "(%.2f%%)\n",
                static_cast<unsigned long long>(unmatched),
                static_cast<unsigned long long>(system.lineCount()),
                100.0 * unmatched / system.lineCount());

    // 4. A negated-heavy hunt: failure lines NOT from the kernel
    //    daemon (the expensive query class of Section 7.5).
    core::QueryResult r;
    Status st = system.run(
        "(panic | failure | failed) & !\"kernel:\" & !\"rts:\"", &r);
    if (st.isOk()) {
        std::printf("\nnon-kernel failure lines: %llu "
                    "(scanned %llu/%llu pages, %.3f ms modeled)\n",
                    static_cast<unsigned long long>(r.matched_lines),
                    static_cast<unsigned long long>(r.breakdown.pages_scanned),
                    static_cast<unsigned long long>(r.breakdown.pages_total),
                    r.breakdown.total_time.toSeconds() * 1e3);
    }
    return 0;
}
