#!/usr/bin/env python3
"""The ellplan benchmark: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload plan-deep|verify-sweep|cli-readme|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else; paths are resolved from this
file.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Every op's output is checked by
the independent oracle in ``oracle.py`` after the timed region.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with the inputs, per-op
latencies, output digests and a stamp goes to ``bench/results/``.  See
``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN_TABLE = ROOT / "tests" / "golden" / "table.txt"

WORKLOADS = ("plan-deep", "verify-sweep", "cli-readme")
SETUP_PROBES = 7  # fewest set-up samples per timed run; setup_s is their median
MIN_OPS = 100  # a timed run continues past --seconds until it has this many
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10  # samples required above the reported tail percentile
MIN_TRACE_PAIRS = 2
MAX_TRACE_PAIRS = 8
RUN_BUDGET_S = 150.0  # hard stop for one workload, under the 180 s limit
CLI_OP_TIMEOUT_S = 60.0
PASSES = {"plan-deep": 400, "verify-sweep": 400, "cli-readme": 100}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "output_bytes_per_op": "bytes",
}

PER_LAYER_UNITS = {
    "certified.enclose_e.calls": "count",
    "certified.enclose_e.self_s": "s",
    "certified.enclose_exp.calls": "count",
    "certified.enclose_exp.self_s": "s",
    "certified.enclose_exp.den_bits_max": "bits",
    "certified.enclose_log1p.calls": "count",
    "certified.enclose_log1p.self_s": "s",
    "certified.cmp_certified.calls": "count",
    "certified.cmp_certified.self_s": "s",
    "certified.cmp_certified.bits_max": "bits",
    "certified.cmp_certified.operand_bits_max": "bits",
    "certified.cmp_certified.unresolved": "count",
    "certified.cache_hit_ratio": "ratio",
    "bounds.phi.calls": "count",
    "bounds.phi.self_s": "s",
    "bounds.phi.bits_max": "bits",
    "bounds.sweep.self_s": "s",
    "bounds.sweep.checks": "count",
    "bounds.sweep.checks_per_s": "1/s",
    "bounds.log_check.self_s": "s",
    "planner.plan.self_s": "s",
    "planner.probes_per_plan": "count",
    "planner.phi_calls_per_plan": "count",
    "planner.certificate_sharp.self_s": "s",
    "records.render.self_s": "s",
    "records.bytes_per_record": "bytes",
    "records.parse.self_s": "s",
    "costs.reproduce_table.self_s": "s",
    "costs.savings_factor.self_s": "s",
    "testbed.ratio_report.self_s": "s",
    "testbed.check_monotone_submodular.self_s": "s",
    "testbed.oracle_calls": "count",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself could not run (missing sources, a dead worker)."""


# ---------------------------------------------------------------------------
# environment and stamp


def _preflight() -> None:
    if not (SRC / "ellplan" / "__init__.py").is_file():
        raise HarnessError(f"no ellplan sources under {SRC}; run from a full checkout")
    if not GOLDEN_TABLE.is_file():
        raise HarnessError(f"missing {GOLDEN_TABLE.relative_to(ROOT)}")


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "started_unix": time.time(),
    }


# ---------------------------------------------------------------------------
# statistics


def quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  It
    has a smaller variance than a single order statistic, which matters
    here because per-op times on a shared host jump by up to 1.5x from one
    second to the next.
    """
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [mpmath.betainc(a, b, 0, k / n, regularized=True) for k in range(n + 1)]
    return sum(float(cdf[k + 1] - cdf[k]) * x for k, x in enumerate(ordered))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for op_tail_s.

    The level is the highest listed one with at least MIN_BEYOND samples
    above it (nearest rank) in a run of MIN_OPS ops.  Every complete run has
    that many, so all runs, and all commits, report the same level.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    basis = min(n, MIN_OPS)
    for level in TAIL_LEVELS:
        if basis - math.ceil(level / 100 * basis) >= MIN_BEYOND:
            return level, quantile(ordered, level / 100), n - math.ceil(level / 100 * n)
    return 50.0, quantile(ordered, 0.5), n // 2


def _sha(text) -> str:
    if not isinstance(text, str):
        text = json.dumps(text, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up time


def run_process(cmd: list[str], env: dict, timeout_s: float,
                capture: bool = True) -> tuple[int | None, str, str, float]:
    """Run one child to completion: (exit code, stdout, stderr, seconds).

    The exit code is None when the child was killed at ``timeout_s``.  The
    wait is a blocking one with a kill timer: subprocess's own timeout
    polls with sleeps of up to 50 ms, which would quantize the time.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=pipe, stderr=pipe, text=True)

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    return (None if killed.is_set() else proc.returncode), out or "", err or "", elapsed


def setup_probe(env: dict) -> float:
    """Wall time of a fresh interpreter that imports ellplan and ellplan.cli."""
    code, _, _, elapsed = run_process(
        [sys.executable, "-c", "import ellplan, ellplan.cli"], env, 60.0, capture=False
    )
    if code != 0:
        raise HarnessError(f"importing ellplan failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# op runners


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


class Worker:
    """One ``worker.py`` process that runs passes on request."""

    def __init__(self, workload: str, trace: bool, env: dict, deadline: Deadline) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        self.watchdog = threading.Timer(max(1.0, deadline.left()), self.proc.kill)
        self.watchdog.start()
        self.alive = True
        self._send({"workload": workload, "trace": trace})

    def _send(self, doc) -> None:
        try:
            self.proc.stdin.write(json.dumps(doc) + "\n")
            self.proc.stdin.flush()
        except OSError:
            self.alive = False

    def run_pass(self, p: int, ops: list[dict]) -> list[dict]:
        self._send({"pass": p, "ops": ops})
        done = []
        for line in self.proc.stdout:
            doc = json.loads(line)
            if "pass_done" in doc:
                return done
            done.append(doc)
        # killed at the deadline or crashed: the op in flight failed
        self.alive = False
        done.append({"pass": p, "i": min(len(done), len(ops) - 1), "lat": 0.0, "rc": None,
                     "out": None, "error": f"worker ended with code {self.proc.poll()}"})
        return done

    def close(self) -> dict:
        final = {"rss_kb": 0, "trace": None, "attributed_s": 0.0}
        try:
            if self.alive:
                self._send(None)
                self.proc.stdin.close()
                for line in self.proc.stdout:
                    final = json.loads(line)
        finally:
            self.watchdog.cancel()
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
        return final


def run_cli_pass(pass_ops: list[dict], pass_no: int, env: dict, traced: bool,
                 deadline: Deadline) -> list[dict]:
    """Each command runs as ``python bench/cli_boot.py``, a stand-in for
    ``python -m ellplan.cli`` that also reports the process's own peak RSS
    and, when traced, its spans."""
    results = []
    for i, op in enumerate(pass_ops):
        report_path = RESULTS / f"report-{os.getpid()}-{pass_no}-{i}.json"
        cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(report_path),
               "1" if traced else "0", *op["argv"]]
        code, out, err, latency = run_process(
            cmd, env, max(1.0, min(CLI_OP_TIMEOUT_S, deadline.left()))
        )
        doc = {"pass": pass_no, "i": i, "lat": latency, "rc": code,
               "error": "timed out" if code is None else None,
               "out": None if code is None else out, "stderr": err[-300:]}
        try:
            doc["report"] = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        except (OSError, ValueError):
            doc["report"] = None
        doc["trace"] = doc["report"] if traced else None
        results.append(doc)
    return results


# ---------------------------------------------------------------------------
# workloads


def generate(workload: str, seed: int, oracle) -> list[list[dict]]:
    import workloads
    from fractions import Fraction

    if workload == "plan-deep":
        return workloads.plan_deep(seed, PASSES[workload])
    if workload == "verify-sweep":
        return workloads.verify_sweep(seed, PASSES[workload])
    return workloads.cli_readme(
        seed, PASSES[workload], lambda text: oracle.ell_star(Fraction(text))
    )


def timed_run(workload: str, passes: list, seconds: float, env: dict,
              deadline: Deadline) -> tuple[list[dict], list[float], float]:
    """The closed loop with tracing off.

    Whole passes run until at least ``seconds`` of op time and MIN_OPS ops
    are done.  A set-up probe runs before the first pass and after each
    pass, while the loop waits, so set-up is sampled across the whole run.
    Returns the ops, the set-up samples and the peak RSS in KiB.
    """
    setup_probe(env)  # unmeasured: writes the bytecode caches
    setup = [setup_probe(env)]
    worker = Worker(workload, False, env, deadline) if workload != "cli-readme" else None
    ops, busy = [], 0.0
    try:
        for p, pass_ops in enumerate(passes):
            if busy >= seconds and len(ops) >= MIN_OPS or deadline.left() < 20:
                break
            if worker is not None:
                done = worker.run_pass(p, pass_ops)
            else:
                done = run_cli_pass(pass_ops, p, env, False, deadline)
            ops.extend(done)
            busy += sum(d["lat"] for d in done)
            if worker is not None and not worker.alive:
                break
            setup.append(setup_probe(env))
    finally:
        final = worker.close() if worker is not None else None
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(env))
    if final is not None:
        return ops, setup, final["rss_kb"]
    return ops, setup, max((d["report"] or {}).get("peak_rss_kb", 0) for d in ops)


def traced_pass(workload: str, pass_ops: list, env: dict, traced: bool,
                deadline: Deadline) -> dict:
    """The first pass once, in fresh processes; with tracing, its spans."""
    import tracer as layer_trace

    if workload != "cli-readme":
        worker = Worker(workload, traced, env, deadline)
        try:
            ops = worker.run_pass(0, pass_ops)
        finally:
            final = worker.close()
        busy = sum(d["lat"] for d in ops)
        return {"ops": ops, "busy": busy, "snap": final["trace"],
                "unattributed_s": busy - final["attributed_s"], "startup_s": 0.0}
    ops = run_cli_pass(pass_ops, 0, env, traced, deadline)
    busy = sum(d["lat"] for d in ops)
    if not traced:
        return {"ops": ops, "busy": busy, "snap": None}
    traces = [d["trace"] for d in ops if d.get("trace")]
    main_s = sum(t["total_s"].get("cli.main", 0.0) for t in traces)
    seen_s = sum(t["import_s"] + t["top_level_s"] for t in traces)
    wall_s = sum(d["lat"] for d in ops if d.get("trace"))
    return {"ops": ops, "busy": busy,
            "snap": layer_trace.merge(traces) if traces else None,
            "unattributed_s": wall_s - seen_s, "startup_s": wall_s - main_s}


# ---------------------------------------------------------------------------
# checking


def op_key(op: dict) -> str:
    prefix = f"{op['run']}:" if op.get("run") else ""
    return f"{prefix}{op['pass']}:{op['i']}"


def check_ops(workload: str, passes: list, ops: list[dict], oracle, records) -> None:
    """Adds 'reject' (None or a reason) and 'sha256' to each op in place."""
    import oracle as oracle_mod

    for op in ops:
        op["sha256"] = _sha(op["out"]) if op["out"] is not None else None
        if op["error"] is not None:
            op["reject"] = op["error"]
            continue
        given = passes[op["pass"]][op["i"]]
        if workload == "plan-deep":
            if op["rc"] != 0:
                op["reject"] = f"exit {op['rc']}, expected 0"
            else:
                op["reject"] = oracle.check_plan_record(op["out"], given["argv"][2], records)
        elif workload == "verify-sweep":
            op["reject"] = oracle.check_sweep(op["out"], given["lo"], given["hi"], given["spot"])
        else:
            reason = oracle_mod.check_cli(given, op["rc"], op["out"], oracle, records, ROOT)
            if reason and op["stderr"].strip():
                reason += f" (stderr: {op['stderr'].strip().splitlines()[-1]})"
            op["reject"] = reason


def output_bytes(workload: str, op: dict, records) -> int:
    """Bytes the user receives for one op.

    For verify-sweep, whose ops are library calls, this is the size of the
    structured ``sweep`` lines those reports render to under
    ``ellplan verify --format structured``.
    """
    if op["out"] is None:
        return 0
    if workload != "verify-sweep":
        return len(op["out"].encode())
    total = 0
    for rep in op["out"]["reports"]:
        line = records.render_line("sweep", {
            "label": rep["label"], "checked": rep["n"], "all_ok": rep["all_ok"],
            "failures": rep["failures"], "inconclusive": rep["inconclusive"],
            "max_bits": rep["max_bits"],
        })
        total += len(line) + 1
    return total


def replay_check(path: Path, stamp: dict, ops: list[dict], snap_counts) -> dict:
    """Compare output digests and layer counts with the previous results
    file for the same workload, seed and sources."""
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"compared": False, "reason": "no earlier results file"}
    if previous.get("stamp", {}).get("source_sha256") != stamp["source_sha256"]:
        return {"compared": False, "reason": "earlier results are for other sources"}
    before = {(o["key"], o["input_sha256"]): o["sha256"] for o in previous.get("ops", [])}
    common = [o for o in ops if (o["key"], o["input_sha256"]) in before]
    differing = [o["key"] for o in common if before[o["key"], o["input_sha256"]] != o["sha256"]]
    result = {"compared": True, "ops_compared": len(common), "differing_outputs": differing}
    if snap_counts is not None and previous.get("layer_counts") is not None:
        old = previous["layer_counts"]
        result["differing_counts"] = sorted(
            k for k in set(old) | set(snap_counts) if old.get(k) != snap_counts.get(k)
        )
    return result


def layer_counts(snap: dict) -> dict:
    """The parts of a span aggregate that must repeat exactly."""
    flat = {f"calls.{k}": v for k, v in snap["calls"].items()}
    flat.update({f"counts.{k}": v for k, v in snap["counts"].items()})
    flat.update({f"maxes.{k}": v for k, v in snap["maxes"].items()})
    flat["cache.hits"] = snap["cache_hits"]
    flat["cache.lookups"] = snap["cache_lookups"]
    return flat


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, ops: list[dict], setup: list[float], rss_kb: float,
               records) -> tuple[dict, dict]:
    import workloads

    lat = [o["lat"] for o in ops if o["error"] is None]
    if not lat:
        raise HarnessError(f"{workload}: no op completed")
    level, value, beyond = tail(lat)
    sized = ops
    if workload == "cli-readme":  # one full cycle of slack strata; see workloads
        sized = [o for o in ops if o["pass"] < workloads.CLI_CYCLE] or ops
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": quantile(sorted(lat), 0.5),
        "op_tail_s": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss_kb / 1024,
        "output_bytes_per_op": statistics.fmean(output_bytes(workload, o, records) for o in sized),
    }
    detail = {"tail_percentile": level, "tail_samples_beyond": beyond,
              "samples": len(lat), "setup_samples_s": setup,
              "failed_ratio": sum(o["reject"] is not None for o in ops) / len(ops)}
    return metrics, detail


def per_layer(snap: dict, info: dict) -> dict:
    calls = snap["calls"]
    self_s = snap["self_s"]
    counts = snap["counts"]
    maxes = snap["maxes"]
    plans = calls.get("planner.plan", 0)
    rendered = counts.get("records.rendered", 0)
    sweep_s = snap["outer_s"].get("bounds.sweep", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = calls.get(layer, 0)
        elif field == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
    metrics.update({
        "certified.enclose_exp.den_bits_max": maxes.get("certified.enclose_exp.den_bits_max", 0),
        "certified.cmp_certified.bits_max": maxes.get("certified.cmp_certified.bits_max", 0),
        "certified.cmp_certified.operand_bits_max":
            maxes.get("certified.cmp_certified.operand_bits_max", 0),
        "certified.cmp_certified.unresolved": counts.get("certified.cmp_certified.unresolved", 0),
        "certified.cache_hit_ratio": ratio(snap["cache_hits"], snap["cache_lookups"]),
        "bounds.phi.bits_max": maxes.get("bounds.phi.bits_max", 0),
        "bounds.sweep.checks": counts.get("bounds.sweep.checks", 0),
        "bounds.sweep.checks_per_s": ratio(counts.get("bounds.sweep.checks", 0), sweep_s),
        "planner.probes_per_plan": ratio(counts.get("planner.cmp_under_plan", 0), plans),
        "planner.phi_calls_per_plan": ratio(counts.get("planner.phi_under_plan", 0), plans),
        "records.bytes_per_record": ratio(counts.get("records.bytes", 0), rendered),
        "testbed.oracle_calls": counts.get("testbed.oracle_calls", 0),
        "cli.startup_s": info["startup_s"],
        "trace.overhead_ratio": info["overhead_ratio"],
        "trace.unattributed_ratio": info["unattributed_ratio"],
    })
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def traced_run(workload: str, passes: list, seconds: float, env: dict,
               deadline: Deadline, oracle, records):
    """Untraced and traced runs of the first pass, in pairs, for ``seconds``.

    Times and ratios are medians over the pairs; counts come from the first
    traced pass and must repeat exactly in every other.
    """
    pairs, start = [], time.monotonic()
    while len(pairs) < MAX_TRACE_PAIRS and deadline.left() > 30 and (
        len(pairs) < MIN_TRACE_PAIRS or time.monotonic() - start < seconds
    ):
        plain = traced_pass(workload, passes[0], env, False, deadline)
        traced = traced_pass(workload, passes[0], env, True, deadline)
        pairs.append((plain, traced))
    ops = []
    for k, pair in enumerate(pairs):
        for tag, run in zip(("plain", "traced"), pair):
            for op in run["ops"]:
                op["run"] = f"{tag}{k}"
                ops.append(op)
    # the oracle judges the first pass; every later pass saw the same
    # inputs, so its outputs must equal the first pass's op for op
    reference = pairs[0][0]["ops"]
    check_ops(workload, passes, reference, oracle, records)
    first = {o["i"]: (o["sha256"], o["reject"]) for o in reference}
    for op in ops:
        if "reject" in op:
            continue
        op["sha256"] = _sha(op["out"]) if op["out"] is not None else None
        want_sha, want_reject = first.get(op["i"], (None, "no reference output"))
        if op["error"] is not None:
            op["reject"] = op["error"]
        elif op["sha256"] != want_sha:
            op["reject"] = "output differs from the first pass on the same input"
        else:
            op["reject"] = want_reject
    snaps = [traced["snap"] for _, traced in pairs]
    if any(snap is None for snap in snaps):
        raise HarnessError("a traced pass returned no spans")
    counts = [layer_counts(snap) for snap in snaps]
    unstable = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
    layer_runs = [
        per_layer(traced["snap"], {
            "startup_s": traced["startup_s"],
            "overhead_ratio": traced["busy"] / plain["busy"],
            "unattributed_ratio": traced["unattributed_s"] / traced["busy"],
        })
        for plain, traced in pairs
    ]
    metrics = {
        name: statistics.median(run[name] for run in layer_runs)
        if unit in ("s", "ratio", "1/s") else layer_runs[0][name]
        for name, unit in PER_LAYER_UNITS.items()
    }
    detail = {"trace_pairs": len(pairs), "ops_per_pass": len(passes[0]),
              "counts_differing_between_passes": unstable,
              "failed_ratio": sum(o["reject"] is not None for o in ops) / len(ops)}
    return ops, metrics, detail, counts[0], {"layer_runs": layer_runs}


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import oracle as oracle_mod
    import ellplan.records as records

    env = _child_env()
    deadline = Deadline(RUN_BUDGET_S)
    oracle = oracle_mod.Oracle()
    stamp = _stamp(workload, seed, seconds, trace)
    passes = generate(workload, seed, oracle)
    RESULTS.mkdir(exist_ok=True)

    if not trace:
        ops, setup, rss_kb = timed_run(workload, passes, seconds, env, deadline)
        check_ops(workload, passes, ops, oracle, records)
        metrics, detail = end_to_end(workload, ops, setup, rss_kb, records)
        units, snap_counts, extra = END_TO_END_UNITS, None, {}
    else:
        ops, metrics, detail, snap_counts, extra = traced_run(
            workload, passes, seconds, env, deadline, oracle, records
        )
        units = PER_LAYER_UNITS

    for o in ops:
        o["key"] = op_key(o)
        o["input_sha256"] = _sha(passes[o["pass"]][o["i"]])
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    replay = replay_check(path, stamp, ops, snap_counts)
    failed = sum(o["reject"] is not None for o in ops)
    replay_ok = not replay.get("differing_outputs") and not replay.get("differing_counts")
    if trace:
        replay_ok = replay_ok and not detail["counts_differing_between_passes"]
    used = sorted({o["pass"] for o in ops})
    doc = {
        "stamp": stamp | {"ops_per_run": len(ops)} | {
            k: detail[k] for k in ("tail_percentile", "tail_samples_beyond", "samples")
            if k in detail
        },
        "inputs": {str(p): passes[p] for p in used},
        "ops": [
            {"key": o["key"], "lat": o["lat"], "rc": o["rc"],
             "input_sha256": o["input_sha256"], "sha256": o["sha256"], "reject": o["reject"]}
            for o in ops
        ],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "layer_counts": snap_counts,
        "replay": replay,
        **extra,
    }
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return {
        "workload": workload,
        "correct": failed == 0 and replay_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": doc["metrics"],
        "detail": detail,
        "replay": replay,
        "rejects": [f"{op_key(o)} {o['reject']}" for o in ops if o["reject"]][:10],
        "path": path,
    }


def _print_report(result: dict) -> None:
    print(f"== {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_ratio "
          f"{result['detail']['failed_ratio']:.4f}), correct {result['correct']}")
    width = max(len(k) for k in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    d = result["detail"]
    if "tail_percentile" in d:
        print(f"  (op_tail_s is p{d['tail_percentile']:g} of {d['samples']} ops, "
              f"{d['tail_samples_beyond']} beyond it)")
    if d.get("counts_differing_between_passes"):
        print(f"  FLAG counts differ between traced passes: {d['counts_differing_between_passes']}")
    rep = result["replay"]
    if rep.get("compared"):
        print(f"  replay vs earlier results: {rep['ops_compared']} ops compared, "
              f"outputs differing {rep['differing_outputs'] or 'none'}, "
              f"counts differing {rep.get('differing_counts') or 'none'}")
    for line in result["rejects"]:
        print(f"  REJECT {line}")
    print(f"  results: {result['path'].relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _preflight()
    except HarnessError as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # plan records carry 10^5-digit rationals

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in chosen]
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        _print_report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
