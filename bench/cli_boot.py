"""Stand-in for ``python -m ellplan.cli`` that reports on the process.

Usage: python bench/cli_boot.py REPORT_JSON TRACE(0|1) [ellplan arguments ...]

Imports the package (with TRACE 1, installs the layer wrappers first), runs
``ellplan.cli.main`` on the remaining arguments and exits with its code.
Once the command has finished it writes REPORT_JSON: the process's own peak
RSS and, when traced, the span aggregate and the import time.
"""

import json
import sys
import time

_start = time.perf_counter()


def peak_rss_kb() -> int:
    """This process's resident high-water mark since exec, in KiB.

    ``ru_maxrss`` is not used: it also counts the parent's RSS at the time
    of the spawn, which here is the benchmark's own.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if traced:
        import tracer as layer_trace

        tracer = layer_trace.install()
    import ellplan.cli

    import_s = time.perf_counter() - _start
    code = 1
    try:
        code = ellplan.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        report = tracer.snapshot() if tracer is not None else {}
        report["import_s"] = import_s
        report["peak_rss_kb"] = peak_rss_kb()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
