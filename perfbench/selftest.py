#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about two minutes).

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it checks that:
  1. the untraced run emits every end-to-end metric of BENCHMARK.json
     with its unit, and no other;
  2. the deterministic metric (modeled_us) and the counts repeat bit for
     bit for one seed and change for another (modeled_us may repeat when
     the data page count does);
  3. the oracle gate fires: with one expected answer deliberately
     wrong the run reports a failure and exits non-zero;
  4. the traced run emits every per-layer metric with its unit, and no
     other, and its span file, whose per-layer self times recompute
     from its spans.
Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"
WORKLOADS = ("ingest", "mount", "search", "live")
DETERMINISTIC = ["modeled_us"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace=0, extra=()):
    """Returns (exit code, diagnostics, result) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def declared():
    """{name: unit} of the end-to-end and of the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pinned(diag, result):
    """The values that must repeat for one seed."""
    counts = {k: v for k, v in diag.get("diag", {}).items()
              if k.startswith("count.")}
    metrics = {k: result.get("metrics", {}).get(k, {}).get("value")
               for k in DETERMINISTIC}
    return counts, metrics


def self_times(path):
    """Recomputes each layer's self time from a span file: a span's
    duration minus the union of its children's intervals."""
    with open(path) as f:
        doc = json.load(f)
    children = {}
    for sp in doc["spans"]:
        children.setdefault(sp["parent"], []).append(sp)
    self_ms = {}
    for sp in doc["spans"]:
        lo, hi = sp["start_ns"], sp["end_ns"]
        covered, cursor = 0, lo
        for c in sorted(children.get(sp["id"], []),
                        key=lambda c: (c["start_ns"], c["end_ns"])):
            a, b = max(c["start_ns"], cursor), min(c["end_ns"], hi)
            if b > a:
                covered, cursor = covered + b - a, b
        self_ms[sp["layer"]] = (self_ms.get(sp["layer"], 0.0) +
                                (hi - lo - covered) / 1e6)
    return self_ms, doc["self_ms_by_layer"]


def main():
    end_to_end, per_layer = declared()
    for w in WORKLOADS:
        rc, diag, res = run(w, 1)
        check(rc == 0 and res.get("correct") is True and
              res.get("failed") == 0, w + ": seed 1 runs clean")
        got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
        check(got == end_to_end, w + ": end-to-end metrics and units " +
              json.dumps(sorted(set(got.items()) ^ set(end_to_end.items()))))

        rc2, diag2, res2 = run(w, 1)
        counts, metrics = pinned(diag, res)
        counts2, metrics2 = pinned(diag2, res2)
        check(rc2 == 0 and counts and counts == counts2 and
              metrics == metrics2, w + ": counts and deterministic "
              "metrics repeat for one seed")

        # A modeled time that follows the page count (mount's recovery
        # time does) may repeat for two seeds whose stores have as many
        # data pages; otherwise it must move with the seed.
        _, diag3, res3 = run(w, 2)
        counts3, metrics3 = pinned(diag3, res3)
        pages = "count.data_pages"
        same_pages = pages in counts and counts3.get(pages) == counts[pages]
        check(counts3 != counts and
              (same_pages or all(metrics3[k] != metrics[k] for k in metrics)),
              w + ": counts and deterministic metrics change with the "
              "seed")

        rc4, _, res4 = run(w, 1, extra=["--break-oracle"])
        check(rc4 != 0 and res4.get("correct") is False and
              res4.get("failed", 0) > 0,
              w + ": oracle gate fires on a wrong expected answer")

        spans = os.path.join(
            os.path.abspath(os.path.join(
                ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")),
            "work", "spans-%s-1.json" % w)
        if os.path.exists(spans):
            os.remove(spans)
        rc5, _, res5 = run(w, 1, trace=1)
        got = {k: v["unit"] for k, v in res5.get("metrics", {}).items()}
        check(rc5 == 0 and got == per_layer, w + ": per-layer metrics and "
              "units " + json.dumps(sorted(set(got.items()) ^
                                           set(per_layer.items()))))
        check(os.path.exists(spans), w + ": span file written")
        if os.path.exists(spans):
            mine, theirs = self_times(spans)
            check(mine.keys() == theirs.keys() and
                  all(abs(mine[k] - theirs[k]) <= 1e-6 * max(1.0, mine[k])
                      for k in mine),
                  w + ": span file's self times recompute")
    print("selftest: %s" % ("FAILED: %d" % len(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
