"""Closed-loop runner for the in-process workloads (one client, one process).

Protocol, one JSON document per line.  stdin carries the job
``{"workload": "plan-deep" | "verify-sweep", "trace": bool}``, then one
``{"pass": p, "ops": [...]}`` per pass and finally ``null``.  After each op,
outside its timed region, the worker writes the op's latency, exit code and
output; after each pass ``{"pass_done": p}``; at the end the peak RSS and,
with tracing, the span aggregate.  The caller decides when to stop, so it
can run other measurements between passes while the worker waits.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time

from cli_boot import peak_rss_kb


def _plan_op(cli, op):
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(op["argv"], out=out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    latency = time.perf_counter() - start
    return latency, code, out.getvalue()


def _summarize(reports) -> dict:
    summary, digest = [], hashlib.sha256()
    for report in reports:
        ells = [e.ell for e in report.entries]
        summary.append({
            "label": report.label,
            "n": len(ells),
            "first": ells[0] if ells else None,
            "last": ells[-1] if ells else None,
            "contiguous": ells == list(range(ells[0], ells[0] + len(ells))) if ells else True,
            "all_ok": report.all_ok,
            "failures": [e.ell for e in report.failures],
            "inconclusive": [e.ell for e in report.inconclusive],
            "max_bits": max((e.bits_used for e in report.entries), default=0),
        })
        for e in report.entries:
            digest.update(f"{report.label}|{e.ell}|{e.verdict.name}|{e.bits_used}|{e.ok};".encode())
    return {"reports": summary, "sha256": digest.hexdigest()}


def _sweep_op(bounds, op):
    lo, hi = op["lo"], op["hi"]
    kinds = list(bounds.BoundKind)
    start = time.perf_counter()
    by_kind = bounds.verify_bounds(kinds, lo, hi)
    ordering = bounds.verify_bound_ordering(max(lo, 2), hi) if hi >= 2 else {}
    floor = bounds.phi_floor_sweep(lo, hi)
    latency = time.perf_counter() - start
    reports = [by_kind[k] for k in kinds] + list(ordering.values()) + [floor]
    return latency, 0, _summarize(reports)


def main() -> int:
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["trace"]:
        import tracer as layer_trace

        tracer = layer_trace.install()
    import ellplan.bounds as bounds
    import ellplan.cli as cli
    import ellplan.records as records

    if job["workload"] == "plan-deep":
        run_op = lambda op: _plan_op(cli, op)  # noqa: E731
    else:
        run_op = lambda op: _sweep_op(bounds, op)  # noqa: E731

    out = sys.stdout
    attributed = 0.0  # span time that falls inside the ops' timed regions
    for line in sys.stdin:
        request = json.loads(line)
        if request is None:
            break
        for i, op in enumerate(request["ops"]):
            covered = tracer.top_level_s if tracer is not None else 0.0
            try:
                latency, code, output = run_op(op)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                latency, code, output, error = 0.0, None, None, repr(exc)
            if tracer is not None:
                attributed += tracer.top_level_s - covered
                if isinstance(output, str) and code == 0:
                    # the round trip, traced so that records.parse is measured;
                    # the oracle in run.py judges the parsed result
                    try:
                        records.parse_records(output)
                    except ValueError:
                        pass
            out.write(json.dumps({"pass": request["pass"], "i": i, "lat": latency,
                                  "rc": code, "error": error, "out": output}) + "\n")
            out.flush()
        out.write(json.dumps({"pass_done": request["pass"]}) + "\n")
        out.flush()
    final = {
        "done": True,
        "rss_kb": peak_rss_kb(),
        "trace": tracer.snapshot() if tracer is not None else None,
        "attributed_s": attributed,
    }
    out.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
