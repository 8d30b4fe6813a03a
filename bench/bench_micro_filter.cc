/**
 * @file
 * Microbenchmarks for the filtering path: cuckoo lookups, software
 * matching, tokenization, and the full pipeline emulation — the
 * emulation's host-side speed determines how fast the benches
 * themselves run (its *modeled* throughput is what the paper reports).
 */
#include <benchmark/benchmark.h>

#include "accel/accelerator.h"
#include "common/text.h"
#include "compress/lzah.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"

using namespace mithril;

namespace {

const std::string &
corpus()
{
    static const std::string text = [] {
        loggen::LogGenerator gen(loggen::hpc4Datasets()[0]);
        return gen.generate(1 << 20);
    }();
    return text;
}

query::Query
benchQuery()
{
    query::Query q;
    Status st = query::parseQuery(
        "(RAS & KERNEL & !FATAL) | (ERROR & cache)", &q);
    MITHRIL_ASSERT(st.isOk());
    return q;
}

void
BM_CuckooLookup(benchmark::State &state)
{
    accel::FilterProgram program;
    Status st = accel::compileQuery(benchQuery(), &program);
    MITHRIL_ASSERT(st.isOk());
    const char *tokens[] = {"RAS", "KERNEL", "missing", "cache",
                            "2005.06.03", "FATAL"};
    size_t i = 0;
    for (auto _ : state) {
        auto row = program.table.lookup(tokens[i++ % 6]);
        benchmark::DoNotOptimize(row);
    }
}

void
BM_SoftwareMatcher(benchmark::State &state)
{
    query::SoftwareMatcher matcher(benchQuery());
    const std::string &text = corpus();
    for (auto _ : state) {
        uint64_t hits = 0;
        forEachLine(text, [&](std::string_view line) {
            hits += matcher.matches(line);
        });
        benchmark::DoNotOptimize(hits);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}

void
BM_Tokenizer(benchmark::State &state)
{
    const std::string &text = corpus();
    for (auto _ : state) {
        accel::Tokenizer tokenizer;
        forEachLine(text, [&](std::string_view line) {
            benchmark::DoNotOptimize(tokenizer.run(
                line, [](std::string_view, uint16_t) {}));
        });
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}

void
BM_PipelineEmulation(benchmark::State &state)
{
    const std::string &text = corpus();
    compress::LzahPageEncoder enc;
    forEachLine(text, [&](std::string_view line) {
        enc.addLine(line);
    });
    enc.flush();
    std::vector<compress::ByteView> views;
    for (const auto &p : enc.pages()) {
        views.emplace_back(p);
    }
    accel::Accelerator accelerator(
        accel::AccelConfig{.keep_lines = false});
    Status st = accelerator.configure(benchQuery());
    MITHRIL_ASSERT(st.isOk());
    for (auto _ : state) {
        accel::AccelResult result;
        st = accelerator.process(views, accel::Mode::kFilter, &result);
        if (!st.isOk()) {
            state.SkipWithError(st.toString().c_str());
            return;
        }
        benchmark::DoNotOptimize(result.lines_kept);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}

} // namespace

BENCHMARK(BM_CuckooLookup);
BENCHMARK(BM_SoftwareMatcher)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Tokenizer)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineEmulation)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
