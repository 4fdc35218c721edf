#!/usr/bin/env python3
"""Self-test of the benchmark, in a tiny configuration that runs in seconds.

    python3 perfbench/selftest.py

Asserts that:
  * every metric BENCHMARK.json names is emitted, with its unit, on every
    workload (end-to-end metrics untraced, per-layer metrics traced);
  * a deliberately wrong expected value makes operations fail, on every
    workload (the correctness gate trips);
  * the serve-warm transcript has no `error:` line and every open reports
    source=snapshot or source=cache;
  * a run killed by its wall-clock budget still reports, with failures.
Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "selftest")
# One net per workload whose expected marking count the gate test corrupts.
CORRUPT = {"encode-cold": "dme-4", "traverse-cold": "slot-3", "serve-warm": "muller-4"}

failures = []


def check(cond, what):
    print("  %s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    return r, result


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        print(name)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r, res = run(name, trace)
            check(res is not None and res["correct"] and res["failed"] == 0,
                  "%s trace=%d runs clean (exit %d)" % (name, trace, r.returncode))
            if res is None:
                sys.stderr.write(r.stderr[-3000:])
                continue
            got = res["metrics"]
            for m in spec[key]:
                emitted = m["name"] in got and got[m["name"]].get("unit") == m["unit"]
                check(emitted, "%s emits %s [%s]" % (name, m["name"], m["unit"]))

        # The correctness gate: one wrong expected value must fail operations.
        bad = os.path.join(SCRATCH, "expected-wrong-%s.tsv" % name)
        with open(os.path.join(HERE, "expected.tsv"), encoding="utf-8") as src, \
                open(bad, "w", encoding="utf-8") as dst:
            for line in src:
                f = line.split("\t")
                if f[0] == CORRUPT[name]:
                    f[1] = str(int(f[1]) + 1)
                dst.write("\t".join(f))
        r, res = run(name, 0, ["--expected", bad])
        check(res is not None and res["failed"] > 0 and not res["correct"]
              and res["metrics"]["success_pct"]["value"] < 100.0,
              "%s: a wrong expected value for %s fails operations" % (name, CORRUPT[name]))

    print("serve-warm transcript")
    transcript = os.path.join(SCRATCH, "serve-warm.transcript")
    run("serve-warm", 0, ["--transcript", transcript])
    with open(transcript, encoding="utf-8") as f:
        lines = f.read().splitlines()
    opens = [l for l in lines if l.startswith("ok open ")]
    check(not any(l.startswith("error:") for l in lines), "no error: line")
    check(bool(opens) and all(("source=snapshot" in l or "source=cache" in l)
                              for l in opens),
          "%d opens, each source=snapshot or source=cache" % len(opens))

    print("hang guard")
    r, res = run("traverse-cold", 0, ["--budget-s", "0.3"])
    check(res is not None and not res["correct"] and res["failed"] >= 1,
          "a run killed by its budget still reports, with failures")
    check(res is not None and all(m["value"] is None for k, m in res["metrics"].items()
                                  if k != "success_pct"),
          "a killed run reports no figure but success_pct")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
