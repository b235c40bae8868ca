"""Run the hexgait CLI once in a fresh interpreter, traced or not.

Usage: python3 child.py MODE REPORT_JSON -- HEXGAIT_ARGV...

MODE is ``off`` (no wrappers installed), ``spans`` (timed spans and work
counts) or ``alloc`` (tracemalloc peaks only). The in-process wall time of
the ``hexgait.cli.main`` call, the peak RSS and, when traced, the trace
summary go to REPORT_JSON. The exit code is the CLI's.
"""
import json
import sys
from time import perf_counter


def peak_rss_mb() -> float:
    """High-water RSS of this program since exec.

    ``ru_maxrss`` of a vforked child also counts the parent's peak, so the
    benchmark reads ``VmHWM`` of its own address space instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, report_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("off", "spans", "alloc"):
        print(__doc__, file=sys.stderr)
        return 64
    from hexgait import cli

    if mode == "off":
        t0 = perf_counter()
        rc = cli.main(argv)
        report = {"wall_s": perf_counter() - t0}
    else:
        from spans import Tracer

        with Tracer(alloc=mode == "alloc") as tracer:
            rc = tracer.call(cli.main, argv)
        report = tracer.summary()
    report["peak_rss_mb"] = peak_rss_mb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
