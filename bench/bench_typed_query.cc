/**
 * @file
 * Incident-response typed-query tier (DESIGN.md §15): ingests the
 * seeded incident scenario into two stores — typed pseudo-indexes on
 * and off — runs the same typed queries against both, and reports the
 * device-byte reduction the typed posting lists buy.
 *
 * Self-enforcing: the two paths must produce byte-identical match
 * sets (line numbers and text), and the exact-address query must
 * recover exactly the planted ground-truth lines; any divergence
 * exits nonzero. The typed path must also read strictly fewer device
 * bytes than the full scan — the tier's reason to exist.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/mithrilog.h"
#include "loggen/incident.h"

using namespace mithril;
using namespace mithril::bench;

namespace {

/** Device bytes one run touched: staged data pages plus the typed
 *  posting pages it traversed. */
uint64_t
deviceBytes(const core::QueryResult &r)
{
    return r.breakdown.pages_scanned * storage::kPageSize +
           r.breakdown.typed_index_bytes;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Typed-query incident tier", "DESIGN.md SS15 workload");

    loggen::IncidentSpec spec;
    loggen::IncidentGroundTruth truth;
    std::string text = loggen::generateIncident(spec, &truth);
    std::printf("scenario: %llu lines, %zu attacker / %zu session / "
                "%zu decoy planted\n",
                static_cast<unsigned long long>(truth.total_lines),
                truth.attacker_lines.size(), truth.session_lines.size(),
                truth.decoy_lines.size());

    core::MithriLogConfig typed_cfg = obsConfig();
    core::MithriLogConfig scan_cfg = typed_cfg;
    scan_cfg.use_typed_index = false;

    core::MithriLog typed_store(typed_cfg);
    core::MithriLog scan_store(scan_cfg);
    expectOk(typed_store.ingestText(text), "typed ingest");
    expectOk(typed_store.flush(), "typed flush");
    expectOk(scan_store.ingestText(text), "scan ingest");
    expectOk(scan_store.flush(), "scan flush");

    struct Case {
        const char *label;
        std::string query;
    };
    std::vector<Case> cases = {
        {"attacker_exact", "ip:" + spec.attacker_ip},
        {"attacker_subnet", "ip:192.0.2.64/26"},
        {"session_id", "id:" + spec.session_id},
        {"attacker_and_keyword", "ip:" + spec.attacker_ip + " & password"},
    };

    bool ok = true;
    for (const Case &c : cases) {
        core::QueryResult rt, rs;
        expectOk(typed_store.run(c.query, &rt), "typed query");
        expectOk(scan_store.run(c.query, &rs), "scan query");

        // Byte-identical match sets across the two paths.
        if (rt.matched_lines != rs.matched_lines ||
            rt.line_numbers != rs.line_numbers) {
            std::fprintf(stderr,
                         "%s: match sets diverge (typed %llu vs scan "
                         "%llu lines)\n",
                         c.label,
                         static_cast<unsigned long long>(
                             rt.matched_lines),
                         static_cast<unsigned long long>(
                             rs.matched_lines));
            ok = false;
        }
        for (size_t i = 0;
             ok && i < rt.lines.size() && i < rs.lines.size(); ++i) {
            if (rt.lines[i].text != rs.lines[i].text) {
                std::fprintf(stderr, "%s: line text diverges at %zu\n",
                             c.label, i);
                ok = false;
            }
        }
        uint64_t typed_bytes = deviceBytes(rt);
        uint64_t scan_bytes = deviceBytes(rs);
        if (rt.matched_lines > 0 && typed_bytes >= scan_bytes) {
            std::fprintf(stderr,
                         "%s: typed path read %llu device bytes, full "
                         "scan %llu — no reduction\n",
                         c.label,
                         static_cast<unsigned long long>(typed_bytes),
                         static_cast<unsigned long long>(scan_bytes));
            ok = false;
        }
        double reduction =
            typed_bytes > 0 ? static_cast<double>(scan_bytes) /
                                  static_cast<double>(typed_bytes)
                            : 0.0;
        std::printf("%-22s matches %6llu  typed %8llu B (%llu idx) "
                    "full %8llu B  x%.1f\n",
                    c.label,
                    static_cast<unsigned long long>(rt.matched_lines),
                    static_cast<unsigned long long>(typed_bytes),
                    static_cast<unsigned long long>(
                        rt.breakdown.typed_index_bytes),
                    static_cast<unsigned long long>(scan_bytes),
                    reduction);

        obs::JsonRecord rec("typed_query");
        rec.field("label", c.label)
            .field("query", c.query)
            .field("matched_lines", rt.matched_lines)
            .field("typed_predicates", rt.breakdown.typed_predicates)
            .field("typed_index_pages", rt.breakdown.typed_index_pages)
            .field("typed_index_bytes", rt.breakdown.typed_index_bytes)
            .field("typed_pages_scanned", rt.breakdown.pages_scanned)
            .field("full_pages_scanned", rs.breakdown.pages_scanned)
            .field("typed_device_bytes", typed_bytes)
            .field("full_scan_device_bytes", scan_bytes)
            .field("byte_reduction", reduction)
            .field("degraded_typed_scan",
                   rt.breakdown.degraded_typed_scan);
        emitRecord(&rec);
    }

    // Ground-truth oracle: the exact-address query is exactly the
    // planted attacker lines (TEST-NET addresses cannot occur in the
    // background traffic), and the subnet query adds only the decoy.
    {
        core::QueryResult r;
        expectOk(typed_store.run("ip:" + spec.attacker_ip, &r),
                 "oracle query");
        if (r.line_numbers != truth.attacker_lines) {
            std::fprintf(stderr,
                         "ground truth mismatch: %zu attacker lines "
                         "found, %zu planted\n",
                         r.line_numbers.size(),
                         truth.attacker_lines.size());
            ok = false;
        }
        core::QueryResult sub;
        expectOk(typed_store.run("ip:192.0.2.64/26", &sub),
                 "oracle subnet");
        if (sub.matched_lines != truth.attacker_lines.size() +
                                     truth.decoy_lines.size()) {
            std::fprintf(stderr, "subnet ground truth mismatch\n");
            ok = false;
        }
    }

    finishBench();
    if (!ok) {
        std::fprintf(stderr, "typed-query contract violated\n");
        return 1;
    }
    return 0;
}
