"""panelmetrics benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload analyze --seed 3 --seconds 30 --trace 0

Each operation runs ``child.py`` in a fresh interpreter, which imports
``panelmetrics`` from ``src`` next to this directory, writes the
workload's inputs and runs one ``panelmetrics.cli.main`` command; the
outputs are then checked by ``checks.py``. Operations repeat until the
next one would end after ``--seconds``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
medians over the run's operations.

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` operations alternate between untraced and traced, and the
metrics are the per-layer ones taken from the traced operations' spans,
plus ``trace.wall_ratio``, the traced wall time over the untraced.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import layer_totals, load_spans, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a single operation takes well under 20 s; this only bounds a hang
OP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

# span-derived metrics: "<module>.<function>.<field>", field one of
# s (inclusive), self_s, calls
SPAN_METRICS = (
    "simulate.panel_precision_scan.self_s",
    "simulate.generate_universe.s",
    "simulate.generate_universe.calls",
    "simulate.fit_exponent_b.s",
    "simulate.mean_offdiag_correlation.s",
    "precision.top_set.calls",
    "precision.top_set.s",
    "precision.precision_at_q.calls",
    "precision.precision_curve.s",
    "empirics.load_scores.s",
    "empirics.pairwise_correlations.s",
    "empirics.optimal_weights.s",
    "empirics.optimal_weights.calls",
    "empirics.per_ai_precision_curves.s",
    "empirics.panel_subset_analysis.self_s",
    "empirics.variance_quality.s",
    "empirics.qq_data.s",
    "empirics.summary_stats.s",
    "streams.generator.calls",
    "streams.sample_signal.s",
    "streams.add_calibrated_noise.s",
    "anchors.student_t_anchor.s",
    "anchors.normal_limit_anchor.s",
    "special.std_normal_quantile.s",
    "special.bivariate_normal_cdf.s",
    "special.student_t_sf_two_sided.s",
    "emit.write_json.s",
    "emit.write_csv.s",
    "emit.svg_line_plot.s",
    "cli.cmd_scaling.self_s",
    "cli.cmd_curves.self_s",
    "cli.cmd_analyze.self_s",
)
# counts that must repeat exactly between operations on the same inputs
EXACT = tuple(m for m in SPAN_METRICS if m.endswith(".calls")) + ("emit.bytes_written",)


def per_layer_units() -> dict[str, str]:
    units = {m: "count" if m.endswith(".calls") else "s" for m in SPAN_METRICS}
    units["emit.bytes_written"] = "bytes"
    units["trace.wall_ratio"] = "ratio"
    return units


def span_metrics(spans) -> dict[str, float]:
    totals = layer_totals(spans)
    values = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        values[metric] = totals.get(name, {}).get(field, 0 if field == "calls" else 0.0)
    return values


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def run_op(name: str, seed: int, trace: bool, opdir: Path) -> dict:
    """One operation: the command in a fresh process, then its checks."""
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           f"--seed={seed}", "--trace", str(int(trace))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=opdir, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": f"no result within {OP_TIMEOUT_S} s", "trace": trace}
    op_file = opdir / "op.json"
    if proc.returncode != 0 or not op_file.is_file():
        return {"failed": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "trace": trace}
    op = json.loads(op_file.read_text())
    if op["exit_code"] != 0:
        return {"failed": f"command exit {op['exit_code']}: {proc.stderr.strip()[-500:]}",
                "trace": trace}

    op.update(
        trace=trace,
        setup_s=op["ready"] - spawned,
        peak_rss_mib=op["peak_rss_kib"] / 1024.0,
        problems=checks.check(name, opdir, proc.stdout),
        bytes=bytes_written(opdir / workloads.OUT),
    )
    if trace:
        spans = load_spans(opdir / "spans.json")
        op["layers"] = span_metrics(spans)
        op["layers"]["emit.bytes_written"] = op["bytes"]
        self_sum = sum(self_times(spans))
        if not self_sum <= op["wall_s"]:
            op["problems"].append(f"self times sum to {self_sum:.6f} s, over the wall time")
        shutil.copyfile(opdir / "spans.json", opdir.parent / "spans.json")
    return op


def summarize(ops: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Median metrics over the completed operations, and any problems."""
    done = [op for op in ops if "failed" not in op]
    problems = [p for op in done for p in op["problems"]]
    if len({op["bytes"] for op in done}) > 1:
        problems.append("operations on the same inputs wrote different byte counts")
    if not trace:
        return {
            key: {"value": statistics.median(op[key] for op in done), "unit": unit}
            for key, unit in END_TO_END.items()
        }, problems

    traced = [op for op in done if op["trace"]]
    plain = [op for op in done if not op["trace"]]
    units = per_layer_units()
    metrics = {}
    for key in units:
        if key == "trace.wall_ratio":
            value = (statistics.median(op["wall_s"] for op in traced)
                     / statistics.median(op["wall_s"] for op in plain))
        else:
            values = [op["layers"][key] for op in traced]
            if key in EXACT:
                if len(set(values)) > 1:
                    problems.append(f"{key} differs between operations: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
        metrics[key] = {"value": value, "unit": units[key]}
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "panelmetrics" / "__init__.py").is_file():
        print(f"error: no panelmetrics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    rundir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    ops: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    # a traced run needs at least one untraced and one traced operation
    while not ops or (trace and len(ops) < 2) or (
        time.monotonic() - start + statistics.median(durations) <= args.seconds
    ):
        t0 = time.monotonic()
        op = run_op(args.workload, args.seed, trace and len(ops) % 2 == 1, rundir / "op")
        durations.append(time.monotonic() - t0)
        ops.append(op)
        if "failed" in op:
            print(f"op {len(ops)}: FAILED {op['failed']}", file=sys.stderr)
        else:
            print(f"op {len(ops)}{' (traced)' if op['trace'] else ''}: "
                  f"setup {op['setup_s']:.3f} s, wall {op['wall_s']:.3f} s, "
                  f"cpu {op['cpu_s']:.3f} s, peak RSS {op['peak_rss_mib']:.1f} MiB"
                  + ("" if not op["problems"] else f", {len(op['problems'])} problems"))

    failed = sum("failed" in op for op in ops)
    kinds = {op["trace"] for op in ops if "failed" not in op}
    if kinds != ({False, True} if trace else {False}):
        print("error: no operation of some kind completed", file=sys.stderr)
        return 1
    metrics, problems = summarize(ops, trace)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    (rundir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
