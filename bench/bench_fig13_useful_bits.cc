/**
 * @file
 * Figure 13: percentage of useful bits in the tokenized datapath per
 * dataset — the padding-amplification statistic that drove the 16-byte
 * datapath choice and the 2x hash filter replication.
 */
#include <cstdio>

#include "accel/tokenizer.h"
#include "bench_util.h"
#include "common/text.h"

using namespace mithril;
using namespace mithril::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Useful bits in the tokenized datapath", "Figure 13");
    std::printf("%-12s %14s %14s %12s\n", "dataset", "tokenized words",
                "useful bytes", "useful %");
    for (const auto &spec : loggen::hpc4Datasets()) {
        loggen::LogGenerator gen(spec);
        std::string text = gen.generate(4 << 20);
        accel::Tokenizer tokenizer;
        forEachLine(text, [&](std::string_view line) {
            tokenizer.run(line, [](std::string_view, uint16_t) {});
        });
        std::printf("%-12s %14llu %14llu %11.1f%%\n",
                    spec.name.c_str(),
                    static_cast<unsigned long long>(
                        tokenizer.wordsEmitted()),
                    static_cast<unsigned long long>(
                        tokenizer.usefulBytes()),
                    tokenizer.usefulRatio() * 100.0);
        obs::JsonRecord rec("fig13_useful_bits");
        rec.field("dataset", spec.name)
            .field("tokenized_words", tokenizer.wordsEmitted())
            .field("useful_bytes", tokenizer.usefulBytes())
            .field("useful_ratio", tokenizer.usefulRatio());
        emitRecord(&rec);
    }
    std::printf("\npaper: roughly half the tokenized datapath is "
                "useful data on all four\ndatasets, motivating two "
                "hash filters per pipeline.\n");
    finishBench();
    return 0;
}
