#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload kv-point --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Run from the root of the repository. The script builds
perfbench/perfbench.exe with dune (into $CARGO_TARGET_DIR, default
.bench_build), then:

  --trace 0  runs several sub-runs of the workload, each in a fresh process
             with its own sub-seed derived from --seed, and aggregates them
             into the end-to-end metrics (host-time metrics are medians of
             normalized sub-run figures, see REF_NOMINAL_S; virtual-time
             metrics are means; counts are pooled ratios).
  --trace 1  runs one layer pass: the untraced per-layer counters, the
             causal decomposition from a bounded traced pass, the tracing
             overhead and the layer kernels. Host-time spans go to
             perfbench/out/spans-<workload>-<seed>.jsonl.

A human-readable table goes to stdout first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["kv-point", "kv-scan", "churn"]

# Sub-run shape per workload: how many processes one run starts and how
# many client ops each measures. kv-point and kv-scan size each sub-run's
# measured phase to about one host second and run nine of them; churn's
# phase cost is dominated by its creations and anti-entropy, so it keeps a
# fixed op count and scales the number of sub-runs with --seconds instead
# (at most 16, so a run still fits the 180-second budget).
SHAPE = {
    "kv-point": {"subruns": lambda s: 9, "ops": lambda s: 2000 * s},
    "kv-scan": {"subruns": lambda s: 9, "ops": lambda s: 400 * s},
    "churn": {"subruns": lambda s: min(16, max(3, s * 8 // 15)), "ops": lambda s: 8000},
}
# The layer pass: untraced ops, and the ops of the two small passes that
# measure the causal decomposition and the tracing overhead.
LAYER_OPS = {"kv-point": (40000, 4000), "kv-scan": (8000, 2000), "churn": (8000, 8000)}

# Host-time metrics are reported normalized to a host on which the
# reference kernel (perfbench.ml, reference_s: stdlib-only hashing,
# hashtable churn and sorting) takes REF_NOMINAL_S CPU seconds. Each
# sub-run times the kernel just before its set-up and just after its
# measured phase, in the same process; the mean of the two is that
# sub-run's machine speed. The shared machine's speed drifts by 10-20 %
# over minutes and the kernel drifts with it, so the normalized figures
# hold still while the program's own cost still moves them one for one.
# The raw medians are printed beside them.
REF_NOMINAL_S = 0.175

E2E = [
    ("setup_s", "s"),
    ("ops_per_host_s", "1/s"),
    ("heap_peak_mb", "MB"),
    ("get_p50_vus", "vus"),
    ("get_p99_vus", "vus"),
    ("put_p50_vus", "vus"),
    ("put_p99_vus", "vus"),
    ("msgs_per_op", "count"),
    ("bytes_per_op", "B"),
    ("ok_pct", "%"),
    ("checks_passed_pct", "%"),
    ("sigma_qv_pct", "%"),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile("dune-project"):
        die("run from the repository root (no dune-project here)")
    # The shared dune cache lives outside the checkout: keep it off.
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--cache", "disabled",
           "--profile", "release", "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    if not os.path.isfile(exe):
        die("build produced no executable")
    return exe


# Every sub-run of one workload must end by this many seconds after the
# workload started, so a run stays inside a 180-second budget.
DEADLINE_S = 170
START = [0.0]


def child(exe, args):
    left = DEADLINE_S - (time.monotonic() - START[0])
    if left <= 0:
        die("out of time before sub-run %s" % " ".join(args))
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=left, text=True)
    except subprocess.TimeoutExpired:
        die("sub-run %s ran out of time" % " ".join(args))
    if r.returncode != 0:
        die("sub-run %s exited with %d" % (" ".join(args), r.returncode))
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if not lines:
        die("sub-run %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def subseed(seed, j):
    return seed * 16 + j


# Checks whose failure means the outputs are wrong: a preload write that
# was not acknowledged, a lost acknowledged write, a value that was never
# written, an incomplete scan. The other checks (operations unsettled after
# the settle window, the audit, the invariant battery, read-your-writes,
# Merkle consistency, anti-entropy convergence) are counted as findings
# and do not abort the run; see perfbench/README.md.
HARD = {"preload", "durability", "read_validity", "scan"}


def is_correct(sub):
    return all(c["findings"] == 0 for name, c in sub["checks"].items() if name in HARD)


def e2e(exe, workload, seed, seconds):
    shape = SHAPE[workload]
    k = shape["subruns"](seconds)
    ops = max(1, int(shape["ops"](seconds)))
    subs = []
    for j in range(k):
        subs.append(child(exe, ["e2e", "--workload", workload, "--seed",
                                str(subseed(seed, j)), "--ops", str(ops)]))
    med = lambda key: statistics.median(s[key] for s in subs)
    mean = lambda key: statistics.fmean(s[key] for s in subs)
    med_of = lambda f: statistics.median(f(s) for s in subs)
    ref = lambda s: (s["ref_before_s"] + s["ref_after_s"]) / 2
    attempted = sum(s["attempted"] for s in subs)
    failed = sum(s["failed"] for s in subs)
    checks = [(name, c) for s in subs for name, c in s["checks"].items()]
    passed = sum(1 for _, c in checks if c["findings"] == 0)
    findings = sum(c["findings"] for _, c in checks)
    m = {
        "setup_s": med_of(lambda s: s["setup_s"] * REF_NOMINAL_S / ref(s)),
        "ops_per_host_s": med_of(lambda s: s["ops_per_host_s"] * ref(s) / REF_NOMINAL_S),
        "heap_peak_mb": med("heap_peak_mb"),
        "get_p50_vus": mean("get_p50_vus"),
        "get_p99_vus": mean("get_p99_vus"),
        "put_p50_vus": mean("put_p50_vus"),
        "put_p99_vus": mean("put_p99_vus"),
        "msgs_per_op": sum(s["msgs"] for s in subs) / attempted,
        "bytes_per_op": sum(s["bytes"] for s in subs) / attempted,
        "ok_pct": 100.0 * (attempted - failed) / attempted,
        "checks_passed_pct": 100.0 * passed / len(checks),
        "sigma_qv_pct": mean("sigma_qv_pct"),
    }
    print("perfbench %s  seed %d  %d sub-runs x %d ops" % (workload, seed, k, ops))
    for name, unit in E2E:
        print("  %-20s %16.6g %s" % (name, m[name], unit))
    print("  %-20s %16.6g s   (median, not normalized)" % ("setup_s_raw", med("setup_s")))
    print("  %-20s %16.6g 1/s (median, not normalized)" % ("ops_per_host_s_raw", med("ops_per_host_s")))
    print("  %-20s %16.6g s   (median reference kernel time)" % ("ref_s", med_of(ref)))
    print("  %-20s %16.6g %%  (failed ops / attempted)" % ("failed_pct", 100.0 * failed / attempted))
    print("  %-20s %16d    (findings over all checks)" % ("check_findings", findings))
    if workload == "churn":
        for key in ["creations", "departures", "ae_rounds"]:
            print("  %-20s %16.6g     (median per sub-run)" % (key, med(key)))
    if workload == "kv-scan":
        print("  %-20s %16.6g vus (median over sub-runs)" % ("scan_p50_vus", med("scan_p50_vus")))
        print("  %-20s %16.6g vus" % ("scan_p99_vus", med("scan_p99_vus")))
    for name in sorted({n for n, _ in checks}):
        bad = [c for n, c in checks if n == name and c["findings"]]
        if bad:
            print("  check %-16s %d findings in %d/%d sub-runs, e.g. %s" % (
                name, sum(c["findings"] for c in bad), len(bad), k,
                (bad[0]["samples"] or [""])[0][:160]))
    correct = all(is_correct(s) for s in subs)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": m[name], "unit": unit} for name, unit in E2E}}


# Per-layer metrics of the --trace 1 pass: (name, unit, better, the
# end-to-end metric it should move, and on which workload). The layers are
# named as in lib/.
WIRE = ["data", "repl", "ack", "batch", "2pc", "route_lb", "ae", "other"]
KVP, KVS, CH, ALL = "kv-point", "kv-scan", "churn", "all"
PER_LAYER = (
    [("engine.events_per_op", "count", "lower", "ops_per_host_s", KVP),
     ("engine.queue_peak", "count", "lower", "ops_per_host_s", KVP),
     ("engine.queue_mean", "count", "lower", "ops_per_host_s", KVP),
     ("engine.ns_per_event", "ns", "lower", "ops_per_host_s", KVP),
     ("net.ns_per_send", "ns", "lower", "ops_per_host_s", KVP),
     ("fault.drops_per_op", "count", "lower", "ok_pct, put_p99_vus", CH),
     ("fault.dups_per_op", "count", "lower", "ok_pct, put_p99_vus", CH)]
    + [("wire.msgs_per_op." + c, "count", "lower", "msgs_per_op", ALL) for c in WIRE]
    + [("wire.bytes_per_op." + c, "B", "lower", "bytes_per_op", ALL) for c in WIRE]
    + [("batch.occupancy", "count", "higher", "msgs_per_op, bytes_per_op", KVP),
       ("batch.saved_bytes_per_op", "B", "higher", "msgs_per_op, bytes_per_op", KVP),
       ("rel.reliable_msgs_per_op", "count", "lower", "ops_per_host_s", KVP),
       ("rel.words_per_op", "words", "lower", "ops_per_host_s", KVP),
       ("rel.retransmits_per_op", "count", "lower", "put_p99_vus, msgs_per_op", CH),
       ("rel.first_try_pct", "%", "higher", "put_p99_vus, msgs_per_op", CH),
       ("rel.timeouts", "count", "lower", "put_p99_vus, msgs_per_op", CH),
       ("route.hops_p50", "count", "lower", "member.create_p90_vms, msgs_per_op", CH),
       ("route.hops_p99", "count", "lower", "member.create_p90_vms, msgs_per_op", CH),
       ("route.cache_hit_pct", "%", "higher", "member.create_p90_vms, msgs_per_op", CH),
       ("route.evictions_per_op", "count", "lower", "member.create_p90_vms, msgs_per_op", CH),
       ("route.retries_per_op", "count", "lower", "member.create_p90_vms, msgs_per_op", CH),
       ("route.lookup_ns", "ns", "lower", "ops_per_host_s", KVP),
       ("repl.read_repairs_per_op", "count", "lower", "get_p99_vus, ok_pct", CH),
       ("repl.hints_stored", "count", "lower", "get_p99_vus, ok_pct", CH),
       ("repl.hints_flushed", "count", "higher", "get_p99_vus, ok_pct", CH),
       ("member.creations", "count", "higher", "sigma_qv_pct", CH),
       ("member.host_ms_per_create", "ms", "lower", "ops_per_host_s", CH),
       ("member.transfer_bytes_per_create", "B", "lower", "bytes_per_op", CH),
       ("member.create_p50_vms", "vms", "lower", "ops_per_host_s, sigma_qv_pct", CH),
       ("member.create_p90_vms", "vms", "lower", "ops_per_host_s, sigma_qv_pct", CH),
       ("2pc.prepare_p90_vms", "vms", "lower", "member.create_p90_vms", CH),
       ("scan.p50_vus", "vus", "lower", "(scan latency)", KVS),
       ("scan.p99_vus", "vus", "lower", "(scan latency)", KVS),
       ("scan.cells_per_scan", "count", "lower", "ops_per_host_s, scan.p99_vus", KVS),
       ("scan.host_us_per_scan", "us", "lower", "ops_per_host_s, scan.p99_vus", KVS),
       ("ae.host_s", "s", "lower", "ops_per_host_s", CH)]
    + [("ae." + n, "count", "lower", "ops_per_host_s, bytes_per_op", CH)
       for n in ["rounds", "digests", "roots", "frames", "keys_sent"]]
    + [("ae.bytes", "B", "lower", "bytes_per_op", CH),
       ("merkle.insert_ns", "ns", "lower", "ops_per_host_s", CH),
       ("merkle.frame_ns", "ns", "lower", "ops_per_host_s", CH),
       ("lb.swaps", "count", "lower", "msgs_per_op, sigma_qv_pct", CH),
       ("lb.msgs_per_op", "count", "lower", "msgs_per_op, sigma_qv_pct", CH),
       ("gc.minor_words_per_op", "words", "lower", "ops_per_host_s, heap_peak_mb", ALL),
       ("gc.major_words_per_op", "words", "lower", "ops_per_host_s, heap_peak_mb", ALL),
       ("gc.major_collections_per_kop", "count", "lower", "ops_per_host_s, heap_peak_mb", ALL),
       ("phase.build_s", "s", "lower", "setup_s", ALL),
       ("phase.preload_s", "s", "lower", "setup_s", ALL),
       ("trace.host_overhead_pct", "%", "lower", "(cost of tracing)", ALL),
       ("trace.events_per_op", "count", "lower", "(cost of tracing)", ALL),
       ("trace.dropped", "count", "lower", "(bounded trace)", ALL),
       ("causal.analyze_s", "s", "lower", "(offline analysis)", ALL),
       ("causal.sum_mismatches", "count", "lower", "(decomposition audit)", ALL),
       ("causal.ops", "count", "higher", "(ops decomposed)", ALL)]
    + [("causal.%s_%s" % (c, q), u, "lower", "get_p50_vus" if c == "queue" else "get_p50_vus, put_p99_vus", KVP)
       for c in ["queue", "network", "service", "retransmit"]
       for q, u in [("p50_vus", "vus"), ("p99_vus", "vus"), ("share_pct", "%")]]
)


def layers(exe, workload, seed):
    n, small = LAYER_OPS[workload]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    spans = os.path.join("perfbench", "out", "spans-%s-%d.jsonl" % (workload, seed))
    d = child(exe, ["layers", "--workload", workload, "--seed", str(seed), "--ops", str(n),
                    "--traced-ops", str(small), "--spans", spans])
    vals = d["metrics"]
    print("perfbench %s  seed %d  layer pass (%d ops untraced, %d ops traced)" % (workload, seed, n, small))
    print("  %-34s %14s %-6s  %s" % ("metric", "value", "unit", "should move (on workload)"))
    for name, unit, _, moves, on in PER_LAYER:
        print("  %-34s %14.6g %-6s  %s (%s)" % (name, vals[name], unit, moves, on))
    print("  causal decomposition of %d traced ops: queue %.1f%%, network %.1f%%, service %.1f%%, "
          "retransmit %.1f%%; sum mismatches: %d %s" % (
              vals["causal.ops"], vals["causal.queue_share_pct"], vals["causal.network_share_pct"],
              vals["causal.service_share_pct"], vals["causal.retransmit_share_pct"],
              vals["causal.sum_mismatches"], d["mismatches"]))
    print("  tracing overhead: %+.1f%% host time, %.1f events per op" % (
        vals["trace.host_overhead_pct"], vals["trace.events_per_op"]))
    print("  host-time spans (self seconds), written to %s:" % spans)
    for sp in d["spans"]:
        print("    %-22s x%-4d %9.3f s" % (sp["name"], sp["count"], sp["self_s"]))
    sub = {"checks": d["checks"]}
    return {"correct": is_correct(sub) and vals["causal.sum_mismatches"] == 0,
            "attempted": d["attempted"], "failed": d["failed"],
            "metrics": {name: {"value": vals[name], "unit": unit}
                        for name, unit, _, _, _ in PER_LAYER}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be positive")
    exe = build()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    results = []
    for w in workloads:
        START[0] = time.monotonic()
        if a.trace:
            results.append(layers(exe, w, a.seed))
        else:
            results.append(e2e(exe, w, a.seed, a.seconds))
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                                      for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
