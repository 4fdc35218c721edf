#!/usr/bin/env python3
"""End-to-end benchmark for pnenc: builds pnbench, runs one workload under a
wall-clock budget, checks every answer and prints the metrics.

    python3 perfbench/run.py --workload encode-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is the
environment record. A human-readable report goes to standard error, and the full
result (environment, metrics, failures) to .bench_build/results/. See README.md
in this directory for the workloads and the metric glossary.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("encode-cold", "traverse-cold", "serve-warm")
# The process gets at most this long in all; a run that outlives it is killed
# and its unfinished operations count as failed.
MAX_BUDGET_S = 150.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out_dir):
    """Configures and builds pnbench; returns its path or None."""
    bdir = os.path.join(out_dir, "perfbench")
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", "2"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, check=False)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(bdir, "pnbench")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, math.ceil(q / 100.0 * len(xs)) - 1))]


def group(ops, key, value):
    out = {}
    for o in ops:
        out.setdefault(key(o), []).append(value(o))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "analysis_ms_geomean": "ms",
    "analyses_per_s": "1/s",
    "open_ms_geomean": "ms",
    "query_ms_mean": "ms",
    "success_pct": "%",
    "peak_rss_mb": "MB",
}

# Self-time spans whose per-analysis mean is a per-layer metric.
SELF_MS = {
    "petri.load_ms": ["petri.load"],
    "linalg.farkas_ms": ["linalg.farkas"],
    "smc.find_smcs_ms": ["smc.find_smcs"],
    "smc.cover_ms": ["smc.cover"],
    "encoding.build_ms": ["encoding.build"],
    "symbolic.context_ms": ["symbolic.context"],
    "symbolic.partition_ms": ["symbolic.partition"],
    "symbolic.saturate_ms": ["symbolic.saturate"],
    "symbolic.deadlocks_ms": ["symbolic.deadlocks"],
    "symbolic.teardown_ms": ["symbolic.teardown"],
    "snapshot.load_ms": ["snapshot.load"],
    "server.self_ms": ["server.open"],
    "query.self_ms": ["query.reach", "query.ctl", "query.trace"],
    "bench.self_ms": ["bench.analysis"],
}
# Counters averaged over the operations that report them.
MEAN_CTR = {
    "linalg.invariants": "linalg.invariants",
    "smc.smcs": "smc.smcs",
    "smc.cover_optimal_frac": "smc.cover_optimal",
    "encoding.vars": "encoding.vars",
    "symbolic.clusters": "symbolic.clusters",
    "symbolic.components": "symbolic.components",
    "symbolic.sat_applications": "symbolic.sat_applications",
    "snapshot.bytes": "snapshot.bytes",
}
LAYERS = ("petri", "linalg", "smc", "encoding", "symbolic", "snapshot",
          "server", "query", "bench")


def unit_of(name):
    if "_ms" in name:
        return "ms"
    if name.startswith("share.") or name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def analyses(ops):
    """The unit analyses_per_s and the per-analysis means count: one cold
    analysis, or one serve session (an open and its queries)."""
    return [o for o in ops if o["kind"] in ("analysis", "open")]


def best_per_item(ops, key, value):
    """{item: the least, over rotations, of the item's summed value in one}."""
    per_rot = {}
    for o in ops:
        k = (key(o), o["rot"])
        per_rot[k] = per_rot.get(k, 0.0) + value(o)
    out = {}
    for (item, _), v in per_rot.items():
        out[item] = min(out.get(item, v), v)
    return out


def end_to_end(ops, setups, rss_mb, attempted, failed, killed):
    """Every timing is the best over the run's rotations of what one rotation
    took for that item: on a shared host interference only ever adds time,
    and the best of many rotations is what stays put from run to run (the
    median moved 2-3 times as much in trials; README.md).

    A figure that a hang or a failure would flatter is None (null): after a
    kill every figure but success_pct, and the timings when some operation
    slot never succeeded, since a best or a mean over fewer slots reads as a
    gain."""
    every = [o for o in ops if o["pass"] == "plain"]
    plain = [o for o in every if o["ok"]]

    items = list(best_per_item(plain, lambda o: o["item"], lambda o: o["ms"]).values())
    opens = list(best_per_item([o for o in plain if o["kind"] in ("analysis", "open")],
                               lambda o: o["item"],
                               lambda o: o.get("open_ms", o["ms"])).values())
    queries = list(best_per_item([o for o in plain if o["kind"] in ("analysis", "query")],
                                 lambda o: (o["item"], o["slot"]),
                                 lambda o: o.get("query_ms", o["ms"])).values())
    per_rotation = len(analyses(plain)) / (1 + max(o["rot"] for o in plain)) if plain else 0
    m = {
        "setup_s": median(setups),
        "analysis_ms_geomean": geomean(items),
        # A rotation's analyses over the time a rotation takes at each item's best.
        "analyses_per_s": 1e3 * per_rotation / sum(items) if items else 0.0,
        "open_ms_geomean": geomean(opens),
        "query_ms_mean": statistics.fmean(queries) if queries else 0.0,
        "success_pct": 100.0 * (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": rss_mb,
    }
    if killed:
        return {k: (v if k == "success_pct" else None) for k, v in m.items()}

    def slots(xs):
        return {(o["item"], o["kind"], o["slot"]) for o in xs}

    if slots(plain) != slots(every):
        for k in ("analysis_ms_geomean", "analyses_per_s", "open_ms_geomean",
                  "query_ms_mean"):
            m[k] = None
    return m


def per_layer(ops, counters, setup_traces):
    plain = [o for o in ops if o["pass"] == "plain" and o["ok"]]
    traced = [o for o in ops if o["pass"] == "traced" and o["ok"]]
    n = max(1, len(analyses(traced)))
    self_total = {}
    for o in traced:
        for name, ms in o.get("self", {}).items():
            self_total[name] = self_total.get(name, 0.0) + ms
    m = {}
    for metric, spans in SELF_MS.items():
        m[metric] = sum(self_total.get(s, 0.0) for s in spans) / n
    for metric, ctr in MEAN_CTR.items():
        vals = [o["ctr"][ctr] for o in traced if ctr in o.get("ctr", {})]
        m[metric] = statistics.fmean(vals) if vals else 0.0
    hits = sum(o.get("ctr", {}).get("symbolic.sat_memo_hits", 0.0) for o in traced)
    looks = sum(o.get("ctr", {}).get("symbolic.sat_memo_lookups", 0.0) for o in traced)
    m["symbolic.sat_memo_hit_ratio"] = hits / looks if looks else 0.0

    # Kernel counters: per cold analysis, or per serve session (from `stats`).
    ctrs = [o.get("ctr", {}) for o in traced] + counters
    for dd in ("bdd", "zdd"):
        rows = [c for c in ctrs if dd + ".cache_lookups" in c]
        look = sum(c[dd + ".cache_lookups"] for c in rows)
        hit = sum(c[dd + ".cache_hits"] for c in rows)
        m[dd + ".peak_nodes"] = max([c[dd + ".peak_nodes"] for c in rows], default=0.0)
        m[dd + ".cache_lookups"] = look / len(rows) if rows else 0.0
        m[dd + ".cache_hit_ratio"] = hit / look if look else 0.0
        m[dd + ".gc_runs"] = sum(c[dd + ".gc_runs"] for c in rows) / len(rows) if rows else 0.0
        m[dd + ".reorder_runs"] = (sum(c[dd + ".reorder_runs"] for c in rows) / len(rows)
                                   if rows else 0.0)

    m["snapshot.save_ms"] = median([s["snapshot.save_ms"] for s in setup_traces])

    # Latencies come from the untraced pass of the same run.
    opens = [o for o in plain if o["kind"] == "open"]
    snap = [o["ms"] for o in opens if o["cls"] == "snapshot"]
    cache = [o["ms"] for o in opens if o["cls"] == "cache"]
    qs = [o for o in plain if o["kind"] == "query"]
    m["server.open_ms_p50"] = median(snap)
    m["server.open_cache_ms_p50"] = median(cache)
    m["server.cache_hit_ratio"] = len(cache) / len(opens) if opens else 0.0
    m["server.query_ms_p50"] = median([o["ms"] for o in qs])
    m["server.query_ms_p99"] = percentile([o["ms"] for o in qs], 99)
    for cls in ("reach", "ctl", "trace"):
        m["query.%s_ms_p50" % cls] = median([o["ms"] for o in qs if o["cls"] == cls])

    total_self = sum(self_total.values())
    for layer in LAYERS:
        part = sum(v for k, v in self_total.items() if k.split(".")[0] == layer)
        m["share." + layer] = part / total_self if total_self else 0.0

    # Every rotation ran untraced and then traced: the overhead compares the
    # two passes item by item (best of rotations, as the end-to-end metrics
    # do), and the coverage is how much of the traced time the spans' self
    # times account for.
    plain_best = best_per_item(plain, lambda o: o["item"], lambda o: o["ms"])
    traced_best = best_per_item(traced, lambda o: o["item"], lambda o: o["ms"])
    base = sum(plain_best.get(k, 0.0) for k in traced_best)
    m["trace.overhead_frac"] = sum(traced_best.values()) / base - 1.0 if base else 0.0
    traced_ms = sum(o["ms"] for o in traced)
    m["trace.coverage_frac"] = total_self / traced_ms if traced_ms else 0.0
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                       text=True, check=False)
    return r.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library sources, the build files and this benchmark: an
    identity for the code measured that also works outside git."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "CMakeLists.txt")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def environment(args, env_rec):
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": env_rec.get("compiler", "unknown"),
        "build_type": env_rec.get("build_type", "unknown"),
        "asserts": env_rec.get("asserts", None),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }
    warnings = []
    if env["build_type"] != "Release":
        warnings.append("build type is %s, not Release" % env["build_type"])
    if env["asserts"]:
        warnings.append("assertions are enabled (NDEBUG not set)")
    env["warnings"] = warnings
    return env


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_records(path):
    recs = []
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                recs.append(json.loads(line))
            except ValueError:
                pass  # a line cut short by a kill
    return recs


def report(env, metrics, ops, attempted, failed, killed):
    w = sys.stderr.write
    w("pnenc benchmark: %s seed=%s trace=%s  (%s, %s cpus, %s, %s)\n" % (
        env["workload"], env["seed"], env["trace"], env["cpu_model"], env["nproc"],
        env["compiler"], env["build_type"]))
    for warning in env["warnings"]:
        w("  WARNING: %s\n" % warning)
    if killed:
        w("  KILLED by the wall-clock budget; unfinished operations count as failed\n")
    w("  operations: %d attempted, %d failed\n" % (attempted, failed))
    for name, value in metrics.items():
        w("  %-30s %14s %s\n" % (name, "null" if value is None else "%.6g" % value,
                                 unit_of(name) if name not in END_TO_END
                                 else END_TO_END[name]))
    plain = [o for o in ops if o["pass"] == "plain" and o["ok"]]
    rotations = group(plain, lambda o: o["item"], lambda o: o["rot"])
    for item, ms in sorted(best_per_item(plain, lambda o: o["item"],
                                         lambda o: o["ms"]).items()):
        w("  item %-24s best %10.4g ms over %d rotations\n"
          % (item, ms, len(set(rotations[item]))))
    lat = group(plain, lambda o: o["kind"], lambda o: o.get("ms", 0.0))
    for kind, xs in sorted(lat.items()):
        # The highest percentile with at least ten samples beyond it.
        q = 90 if len(xs) >= 100 else 0
        q = 99 if len(xs) >= 1000 else q
        tail = (" p%d=%.4g" % (q, percentile(xs, q))) if q else ""
        w("  latency %-9s n=%-6d p50=%.4g ms%s\n" % (kind, len(xs), median(xs), tail))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small nets, for the self-test")
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.tsv"),
                    help="expected-values table (the self-test corrupts a copy)")
    ap.add_argument("--budget-s", type=float, default=None,
                    help="wall-clock budget of the workload process")
    ap.add_argument("--transcript", default="",
                    help="serve-warm: write the request/response transcript here")
    args = ap.parse_args()

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        return 2

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-tiny" if args.tiny else "")
    work = os.path.join(out_dir, "work", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(out_dir, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    records_path = os.path.join(work, "records.jsonl")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.abspath(args.expected), "--workdir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(results, tag + ".spans.jsonl")]
    if args.transcript:
        cmd += ["--transcript", os.path.abspath(args.transcript)]
    budget = args.budget_s or min(MAX_BUDGET_S, 4.0 * args.seconds + 60.0)

    killed = False
    with open(records_path, "w", encoding="utf-8") as sink:
        proc = subprocess.Popen(cmd, stdout=sink)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            killed = True
            proc.kill()
            code = proc.wait()
    recs = parse_records(records_path)
    shutil.rmtree(work, ignore_errors=True)
    if not killed and code != 0:
        sys.stderr.write("run.py: workload process exited with %d\n" % code)
        return 1

    env_rec = next((r for r in recs if r["rec"] == "env"), {})
    ops = [r for r in recs if r["rec"] == "op"]
    setups = [r["s"] for r in recs if r["rec"] == "setup"]
    done = next((r for r in recs if r["rec"] == "done"), None)
    # Every operation of a started rotation counts as attempted; the ones a
    # kill left unfinished count as failed.
    attempted = sum(r["ops"] for r in recs if r["rec"] == "rotation")
    failed = sum(1 for o in ops if not o["ok"]) + (attempted - len(ops))
    if attempted == 0:
        attempted, failed = 1, 1
    rss_mb = done["rss_mb"] if done else None

    env = environment(args, env_rec)
    if done and not done["rss_reset"]:
        env["warnings"].append("peak_rss_mb includes the expected-answer oracle "
                               "(the kernel could not reset the peak)")
    if args.trace:
        metrics = per_layer(ops, [r["ctr"] for r in recs if r["rec"] == "counters"],
                            [r for r in recs if r["rec"] == "setup_trace"])
    else:
        metrics = end_to_end(ops, setups, rss_mb, attempted, failed, killed)
    report(env, metrics, ops, attempted, failed, killed)
    failures = [o for o in ops if not o["ok"]]
    for o in failures[:20]:
        sys.stderr.write("  FAILED %s %s: %s\n" % (o["kind"], o["net"], o.get("why", "")))

    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    result = {
        "correct": failed == 0 and not killed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "killed": killed, "result": result,
                   "failures": failures[:100]}, f, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
