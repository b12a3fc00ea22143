"""One benchmark operation, in a fresh interpreter.

Run by ``run.py`` with the operation's working directory as cwd. It
imports ``panelmetrics`` from the checkout's ``src``, writes the
workload's inputs, then runs ``panelmetrics.cli.main`` once and writes
``op.json``: when set-up ended (``time.monotonic``, comparable with the
parent's clock), the command's wall and CPU time, the process's peak RSS
and the exit code. The command's stdout goes to this process's stdout.

With ``--trace 1`` every public function of the package is wrapped
first, and the spans are written to ``spans.json`` after the command.
"""
from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import panelmetrics  # noqa: E402
import panelmetrics.cli  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kib() -> int:
    """High-water resident set of this process image, in KiB.

    ``ru_maxrss`` is not used: Linux carries it across ``execve``, so it
    would report the parent's size at fork when that is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _package_modules() -> list:
    names = sorted(info.name for info in pkgutil.iter_modules(panelmetrics.__path__))
    return [panelmetrics] + [importlib.import_module(f"panelmetrics.{n}") for n in names]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = Path.cwd()
    workloads.write_inputs(args.workload, args.seed, workdir)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import Tracer  # imported here to keep it out of setup_s

        tracer = Tracer()
        tracer.install(_package_modules())
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        code = panelmetrics.cli.main(workloads.argv(args.workload, args.seed))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    peak = peak_rss_kib()
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(workdir / "spans.json")

    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    op = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kib": peak,
        "exit_code": code,
    }
    (workdir / "op.json").write_text(json.dumps(op))
    return 0


if __name__ == "__main__":
    sys.exit(main())
