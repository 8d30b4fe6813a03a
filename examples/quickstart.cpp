/**
 * @file
 * Quickstart: ingest a log, run queries, read the results.
 *
 * Demonstrates the minimal MithriLog flow:
 *   1. create a system (simulated near-storage SSD + accelerator),
 *   2. ingest newline-separated log text,
 *   3. run boolean token queries,
 *   4. inspect matches and the modeled performance breakdown.
 *
 * Usage: quickstart [path-to-log-file]
 * Without an argument, a small synthetic HPC log is generated.
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/log_generator.h"

using namespace mithril;

int
main(int argc, char **argv)
{
    // 1. Obtain some log text.
    std::string text;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    } else {
        loggen::LogGenerator gen(loggen::datasetByName("BGL2"));
        text = gen.generate(4 << 20);
        std::printf("generated %s of synthetic BGL2-like logs\n",
                    humanBytes(static_cast<double>(text.size())).c_str());
    }

    // 2. Ingest: lines are LZAH-compressed into 4 KB pages and indexed.
    core::MithriLog system;
    Status st = system.ingestText(text);
    if (!st.isOk()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    st = system.flush();
    if (!st.isOk()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    std::printf("ingested %llu lines into %llu pages "
                "(compression %.2fx, index memory %s)\n",
                static_cast<unsigned long long>(system.lineCount()),
                static_cast<unsigned long long>(system.dataPageCount()),
                system.compressionRatio(),
                humanBytes(static_cast<double>(
                    system.index().memoryFootprint())).c_str());

    // 3. Run queries: plain AND/OR/NOT over whole tokens.
    const char *queries[] = {
        "KERNEL & INFO",
        "FATAL & !INFO",
        "\"error\" | \"failure\"",
    };
    for (const char *q : queries) {
        core::QueryResult result;
        st = system.run(q, &result);
        if (!st.isOk()) {
            std::fprintf(stderr, "query '%s' failed: %s\n", q,
                         st.toString().c_str());
            continue;
        }
        const core::QueryBreakdown &b = result.breakdown;
        std::printf("\nquery: %s\n", q);
        std::printf("  matched %llu of %llu lines; scanned %llu/%llu "
                    "pages\n",
                    static_cast<unsigned long long>(result.matched_lines),
                    static_cast<unsigned long long>(system.lineCount()),
                    static_cast<unsigned long long>(b.pages_scanned),
                    static_cast<unsigned long long>(b.pages_total));
        std::printf("  modeled time: %.3f ms (index %.3f ms, "
                    "storage %.3f ms, compute %.3f ms)\n",
                    b.total_time.toSeconds() * 1e3,
                    b.index_time.toSeconds() * 1e3,
                    b.storage_time.toSeconds() * 1e3,
                    b.compute_time.toSeconds() * 1e3);
        std::printf("  effective throughput: %s\n",
                    humanBandwidth(result.effectiveThroughput(
                        system.rawBytes())).c_str());
        // 4. The same attribution, machine-readable: Table-7's
        // index/storage/compute split plus the index's page-pruning
        // account (candidates, false positives).
        std::printf("  breakdown: %s\n", b.toJson().c_str());
        for (size_t i = 0; i < result.lines.size() && i < 3; ++i) {
            std::printf("  > %s\n", result.lines[i].text.c_str());
        }
    }
    return 0;
}
