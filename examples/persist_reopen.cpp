/**
 * @file
 * Persistence: build a MithriLog store, flush it and save its device
 * image, mount the image in a fresh system (recover), reopen it, and
 * keep querying/ingesting — the operational flow of a log store that
 * survives restarts.
 *
 * Usage: persist_reopen [image-path]  (default: /tmp/mithrilog.img)
 */
#include <cstdio>
#include <string>

#include "common/text.h"
#include "common/wall_timer.h"
#include "core/mithrilog.h"
#include "loggen/log_generator.h"

using namespace mithril;

int
main(int argc, char **argv)
{
    std::string path = argc > 1 ? argv[1] : "/tmp/mithrilog.img";

    // Phase 1: ingest, flush, and save the device image.
    {
        loggen::LogGenerator gen(loggen::datasetByName("Spirit2"));
        core::MithriLog system;
        if (!system.ingestText(gen.generate(4 << 20)).isOk()) {
            return 1;
        }
        WallTimer timer;
        Status st = system.flush();
        if (st.isOk()) {
            st = system.saveDeviceImage(path);
        }
        if (!st.isOk()) {
            std::fprintf(stderr, "save failed: %s\n",
                         st.toString().c_str());
            return 1;
        }
        std::printf("saved %llu lines (%llu pages) to %s in %.2fs\n",
                    static_cast<unsigned long long>(system.lineCount()),
                    static_cast<unsigned long long>(
                        system.dataPageCount()),
                    path.c_str(), timer.seconds());
    }

    // Phase 2: mount the image in a fresh system (the journal replay
    // and index rebuild of recover()), reopen it for writes, and query.
    core::MithriLog reopened;
    WallTimer timer;
    Status st = reopened.recover(path);
    if (st.isOk()) {
        st = reopened.reopen();
    }
    if (!st.isOk()) {
        std::fprintf(stderr, "mount failed: %s\n", st.toString().c_str());
        return 1;
    }
    std::printf("mounted in %.2fs: %llu lines, index memory %s\n",
                timer.seconds(),
                static_cast<unsigned long long>(reopened.lineCount()),
                humanBytes(static_cast<double>(
                    reopened.index().memoryFootprint())).c_str());

    core::QueryResult r;
    st = reopened.run("error | failed | panic", &r);
    if (st.isOk()) {
        std::printf("query over the reopened image: %llu matches, "
                    "%.3f ms modeled (%llu/%llu pages)\n",
                    static_cast<unsigned long long>(r.matched_lines),
                    r.total_time.toSeconds() * 1e3,
                    static_cast<unsigned long long>(r.pages_scanned),
                    static_cast<unsigned long long>(r.pages_total));
    }

    // Phase 3: the reopened store keeps accepting logs.
    if (!reopened.ingestText("post-restart sentinel line PROOF\n")
             .isOk() ||
        !reopened.flush().isOk()) {
        return 1;
    }
    st = reopened.run("PROOF", &r);
    if (st.isOk() && r.matched_lines == 1) {
        std::printf("post-restart ingest works: sentinel found\n");
    }
    std::remove(path.c_str());
    return 0;
}
