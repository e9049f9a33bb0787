"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

One run of one workload::

    python3 perfbench/run.py --workload cold-oracle --seed 1 --seconds 20 --trace 0

prints progress on standard error and, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every run also writes its full record (environment, per-block speed
factors, sample counts, failure share) to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.

All workloads, several seeds, answers checked, every metric printed::

    python3 perfbench/run.py --all --seeds 1,2,3 --out suite.json

Two result files side by side (median, IQR, delta, "unresolved" when the
spread exceeds the metric's bound)::

    python3 perfbench/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Ops per second at reference speed: a run of ``--seconds S`` makes a
#: fixed ``round(S * RATE)`` ops, so a seed always does the same work.
RATE = {"cold-oracle": 600, "warm-planned": 1800, "serve-mixed": 350}

#: Set-up samples taken by separate interpreters after the measured run
#: (the run's own set-up is one more sample; ``setup_s`` is the median).
SETUP_CHILDREN = 6

#: Every run ends within this many seconds.
DEADLINE_S = 170.0

#: Procedures the planner can choose (``analysis.procedure_share.*``).
PROCEDURES = ("default", "horn-least-model", "hcf-founded", "hcf-closure",
              "stratified-perfect", "kernel-bitset")


def log(message: str) -> None:
    sys.stderr.write(f"[perfbench] {message}\n")
    sys.stderr.flush()


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git
    (a checkout without ``.git`` records ``None``)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``worker.py`` with ``args`` in its own process group; its last
    stdout line is its JSON result.  The whole group (the serve
    workload's daemon included) is killed if the deadline passes."""
    # A fixed hash seed fixes the program's set iteration orders, so the
    # oracle counts repeat exactly (with random hash seeds they differ
    # in the fifth digit).
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args[:2]} exceeded the deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[:2]} failed "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def end_to_end(r: Dict[str, Any], setup_samples: List[float],
               setup_writes: List[float]) -> Dict[str, Any]:
    """End-to-end metrics of one untraced pass, at reference speed.
    ``setup_writes`` are the registration latencies of every set-up
    sample (the run's and its set-up interpreters')."""
    kinds = r["kinds"]
    scaled = [lat * f for lat, f in zip(r["latency_s"], r["factor_of"])]
    reads = [v for v, k in zip(scaled, kinds) if k != "write"]
    # A workload whose ops make no writes (warm-planned) reports the
    # registrations made during its set-up.
    writes = ([v for v, k in zip(scaled, kinds) if k == "write"]
              or setup_writes)
    wall = sum(w * f for w, f in zip(r["block_walls"], r["block_factors"]))
    p99 = nearest_rank(reads, 0.99)
    metrics = {
        "throughput_qps": (r["ops"] / wall, "1/s"),
        "latency_p50_ms": (nearest_rank(reads, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "write_latency_p50_ms": (nearest_rank(writes, 0.50) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "np_calls_per_query": (r["np_calls"] / r["reads"], "count"),
        "sigma2_per_query": (r["sigma2"] / r["reads"], "count"),
        "failure_share": (r["failed"] / r["ops"], "ratio"),
    }
    return {
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "samples": {"latency": len(reads), "write_latency": len(writes),
                    "setup": len(setup_samples), "ops": r["ops"],
                    "beyond_p99": sum(1 for v in reads if v > p99)},
        "raw": {"throughput_qps": r["ops"] / sum(r["block_walls"]),
                "latency_p50_ms": nearest_rank(
                    [lat for lat, k in zip(r["latency_s"], kinds)
                     if k != "write"], 0.5) * 1e3},
        "wall_at_ref_s": wall,
    }


def per_layer(untraced: Dict[str, Any], e2e: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of the traced pass (times in ms per op)."""
    trace = traced["trace"]
    layers = trace["layers"]
    ops = traced["ops"]

    def ms(name: str, key: str = "total_s") -> float:
        return layers[name][key] * 1e3 / ops

    def calls(name: str) -> int:
        return layers[name]["calls"]

    procedures = traced.get("procedures", {})
    planned = sum(procedures.values())
    traced_wall = sum(w * f for w, f in zip(traced["block_walls"],
                                            traced["block_factors"]))
    cache = traced["cache"]
    metrics = {
        "sat.solve_ms": (ms("sat.solve", "self_s"), "ms/op"),
        "sat.solve_calls": (calls("sat.solve"), "count"),
        "sat.propagations": (trace["counters"]["sat.propagations"], "count"),
        "sat.conflicts": (trace["counters"]["sat.conflicts"], "count"),
        "sat.decisions": (trace["counters"]["sat.decisions"], "count"),
        "sat.minimal_ms": (ms("sat.minimal"), "ms/op"),
        "sat.pool_acquire_ms": (ms("sat.pool_acquire"), "ms/op"),
        "sat.pool_reuse_rate": (traced["pool_reuse_rate"], "ratio"),
        "semantics.explain_ms": (ms("semantics.explain"), "ms/op"),
        "semantics.explain_calls": (calls("semantics.explain"), "count"),
        "engine.lookup_self_ms": (ms("engine.lookup", "self_s"), "ms/op"),
        "engine.cache_hits": (cache["hits"], "count"),
        "engine.cache_misses": (cache["misses"], "count"),
        "engine.cache_hit_rate": (cache["hit_rate"], "ratio"),
        "engine.evictions": (cache["evictions"], "count"),
        "analysis.plan_ms": (ms("analysis.plan"), "ms/op"),
        "analysis.plans": (calls("analysis.plan"), "count"),
    }
    for procedure in PROCEDURES:
        metrics[f"analysis.procedure_share.{procedure}"] = (
            procedures.get(procedure, 0) / planned if planned else 0.0,
            "ratio")
    metrics.update({
        "kernel.pack_ms": (ms("kernel.pack"), "ms/op"),
        "models.nodes": (traced["nodes"], "count"),
        "obs.certify_ms": (ms("obs.certify"), "ms/op"),
        "obs.certify_checks": (calls("obs.certify"), "count"),
        "obs.violations": (traced["violations"], "count"),
        "obs.known_defect_violations": (traced["known_defect_violations"],
                                        "count"),
        "obs.concurrent_violations": (traced["concurrent_violations"],
                                      "count"),
        "obs.has_model_mismatches": (traced["has_model_mismatches"],
                                     "count"),
        "session.self_ms": (ms("session", "self_s"), "ms/op"),
        "session.calls": (calls("session"), "count"),
        "logic.parse_ms": (ms("logic.parse"), "ms/op"),
        "logic.parse_calls": (calls("logic.parse"), "count"),
        "serve.read_ms": (ms("serve.read"), "ms/op"),
        "serve.write_ms": (ms("serve.write"), "ms/op"),
        "serve.submit_self_ms": (ms("serve.submit", "self_s"), "ms/op"),
        "serve.register_ms": (ms("serve.register"), "ms/op"),
        "serve.batch_width_mean": (traced.get("batch_width_mean", 0.0),
                                   "count"),
        "serve.admitted": (traced.get("admitted", 0), "count"),
        "serve.rejected": (traced.get("rejected", 0), "count"),
        "bench.speed_factor": (statistics.median(untraced["block_factors"]),
                               "ratio"),
        "bench.raw_throughput_qps": (e2e["raw"]["throughput_qps"], "1/s"),
        "bench.raw_latency_p50_ms": (e2e["raw"]["latency_p50_ms"], "ms"),
        "bench.trace_overhead": (traced_wall / e2e["wall_at_ref_s"],
                                 "ratio"),
        "bench.unattributed_share": (trace["unattributed_share"], "ratio"),
        "bench.spans_per_op": (trace["spans"] / ops, "count"),
        "bench.failure_share": (
            (untraced["failed"] + traced["failed"])
            / (untraced["ops"] + traced["ops"]), "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: int, trace: bool
             ) -> Dict[str, Any]:
    """One benchmark run: a dict with the printed result under
    ``result`` and the full record under ``record``."""
    deadline = time.time() + DEADLINE_S
    ops = max(1, round(seconds * RATE[workload]))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR,
                              f"spans-{workload}-seed{seed}.jsonl")
    untraced = run_child(["run", workload, str(seed), str(ops), "0", "-"],
                         deadline)
    setup_samples = [untraced["setup_raw_s"] * untraced["setup_factor"]]
    setup_writes = list(untraced.get("setup_write_latency_s", []))
    for _ in range(SETUP_CHILDREN):
        child = run_child(["setup", workload, str(seed), str(ops), "0", "-"],
                          deadline)
        setup_samples.append(child["setup_raw_s"] * child["setup_factor"])
        setup_writes += child.get("setup_write_latency_s", [])
    e2e = end_to_end(untraced, setup_samples, setup_writes)
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "ops": ops,
        "metrics": e2e["metrics"], "samples": e2e["samples"],
        "raw": e2e["raw"],
        "first_touch_share": untraced["first_touches"] / untraced["ops"],
        "ack_waits": untraced.get("ack_waits", 0),
        "setup_samples_s": setup_samples,
        "speed_factors": untraced["block_factors"],
        "failed": untraced["failed"], "errors": untraced["errors"],
        "violations_by_cell": untraced["violations_by_cell"],
        "known_defect_violations": untraced["known_defect_violations"],
        "concurrent_violations": untraced["concurrent_violations"],
        "has_model_mismatches": untraced["has_model_mismatches"],
    }
    attempted, failed = untraced["ops"], untraced["failed"]
    printed = {k: e2e["metrics"][k] for k in END_TO_END}
    if trace:
        traced = run_child(["run", workload, str(seed), str(ops), "1",
                            spans_path], deadline)
        layers = per_layer(untraced, e2e, traced)
        record["per_layer"] = layers
        record["attribution"] = traced["trace"]["layers"]
        record["traced_speed_factors"] = traced["block_factors"]
        record["spans_path"] = os.path.relpath(spans_path, ROOT)
        record["errors"] += traced["errors"]
        attempted += traced["ops"]
        failed += traced["failed"]
        printed = {k: layers[k] for k in PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": printed}
    return {"result": result, "record": record}


def write_results(path: str, runs: List[Dict[str, Any]]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(), "runs": runs}, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Suite and compare
# ----------------------------------------------------------------------
def quartiles(values: List[float]):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(runs: List[Dict[str, Any]], section: str):
    grouped: Dict[tuple, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, metric in run.get(section, {}).items():
            grouped.setdefault((run["workload"], name), []).append(
                metric["value"])
            units[name] = metric["unit"]
    return grouped, units


def print_suite(runs: List[Dict[str, Any]]) -> None:
    grouped, units = group(runs, "metrics")
    print(f"{'workload':14s} {'metric':22s} {'median':>12s} "
          f"{'IQR/median':>10s} {'n':>3s} unit")
    for (workload, name), values in sorted(grouped.items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:14s} {name:22s} {med:12.4f} {spread:10.3f} "
              f"{len(values):3d} {units[name]}")


def compare(path_a: str, path_b: str) -> int:
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in load_spec()["end_to_end"]}
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A: {path_a}  ({a['env'].get('cpu_model')}, "
          f"sha {a['env'].get('git_sha')})")
    print(f"B: {path_b}  ({b['env'].get('cpu_model')}, "
          f"sha {b['env'].get('git_sha')})")
    for section in ("metrics", "per_layer"):
        ga, units = group(a["runs"], section)
        gb, units_b = group(b["runs"], section)
        units.update(units_b)
        if not ga and not gb:
            continue
        print(f"\n{'workload':14s} {'metric':40s} {'A median':>11s} "
              f"{'A IQR':>9s} {'B median':>11s} {'B IQR':>9s} "
              f"{'delta':>8s}  verdict")
        for key in sorted(set(ga) | set(gb)):
            workload, name = key
            va, vb = ga.get(key, []), gb.get(key, [])
            if not va or not vb:
                print(f"{workload:14s} {name:40s} (only in "
                      f"{'A' if va else 'B'})")
                continue
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            delta = (bm - am) / am if am else 0.0
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                spread = max((a3 - a1) / am if am else 0.0,
                             (b3 - b1) / bm if bm else 0.0)
                worse = delta if better == "lower" else -delta
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "WORSE"
                elif -worse > bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            print(f"{workload:14s} {name:40s} {am:11.4f} {a3 - a1:9.4f} "
                  f"{bm:11.4f} {b3 - b1:9.4f} {delta:+8.1%}  {verdict}")
    return 0


# ----------------------------------------------------------------------
SPEC = load_spec()
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload on every --seeds seed, "
                        "plus one traced run each")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--out", help="result file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.all:
        runs = []
        failed = 0
        for workload in WORKLOADS:
            for index, seed in enumerate(
                    int(s) for s in args.seeds.split(",")):
                log(f"{workload} seed {seed}")
                out = run_once(workload, seed, args.seconds, index == 0)
                runs.append(out["record"])
                failed += out["result"]["failed"]
        write_results(args.out or os.path.join(OUT_DIR, "results",
                                               "suite.json"), runs)
        print_suite(runs)
        print(f"failed operations: {failed}")
        return 0 if failed == 0 else 1
    if not args.workload:
        parser.error("one of --workload, --all or --compare is required")
    out = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    write_results(args.out or os.path.join(
        OUT_DIR, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        [out["record"]])
    for error in out["record"]["errors"][:5]:
        log(f"failure: {error}")
    sys.stdout.write(json.dumps(out["result"]) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        sys.exit(2)
