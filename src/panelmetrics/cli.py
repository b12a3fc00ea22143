"""Command-line surface.

Subcommands:
  formula   evaluate the closed-form panel law over a range of n
  plan      invert the law: smallest panel reaching a target precision
  curves    simulate single-scorer precision curves plus endpoint anchors
  scaling   fit the efficiency exponent over a (q, rho) grid
  analyze   full report over a real score table

Global flags: --seed, --threads, --out, --format. Exit codes: 0 ok,
2 bad arguments, 3 plan unachievable, 4 invalid input data.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .anchors import MAX_T_DOF, AnchorSet, compute_anchors, reference_line, student_t_grid
from .emit import (
    PlotSeries,
    csv_text,
    fmt6,
    row_table,
    svg_line_plot,
    write_csv,
    write_json,
)
from .empirics import (
    SBComparisonRow,
    SubsetSizeRow,
    VarianceQualityRow,
    build_report,
    load_scores,
)
from .errors import DataValidationError, DomainError, PanelMetricsError
from .laws import (
    effective_rho,
    efficiency_exponent,
    panel_precision,
    required_panel_size,
)
from .precision import log_q_grid
from .simulate import (
    PRESETS,
    BGridRow,
    BRegressionRow,
    b_grid_scan,
    regress_b_on_rho,
    simulate_distribution_curve,
)
from .streams import DISTRIBUTION_KINDS, SeededStream


def _parse_value(text: str, kind: type):
    # argparse names a type function's ValueError after the function
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    """Accept "7", "1,3,5", or "1..5"."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_parse_value(part, int) for part in text.split("..", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_list(text, int)


def _parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float)


def _parse_list(text: str, kind: type) -> list:
    values = [_parse_value(part, kind) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_threads(text: str) -> int:
    threads = _parse_value(text, int)
    if threads < 1:
        raise argparse.ArgumentTypeError("threads must be at least 1")
    return threads


def _parse_formats(text: str) -> list[str]:
    formats = [part.strip() for part in text.split(",") if part.strip()]
    bad = [f for f in formats if f not in ("csv", "json", "svg")]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown format(s): {', '.join(bad)}")
    return formats


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    common.add_argument(
        "--threads", type=_parse_threads, default=1, help="worker threads for grid scans"
    )
    common.add_argument(
        "--out", type=Path, default=None, help="output directory for result files"
    )
    common.add_argument(
        "--format",
        type=_parse_formats,
        default=["csv", "json"],
        help="comma list of csv,json,svg (default csv,json)",
    )

    parser = argparse.ArgumentParser(
        prog="panelmetrics",
        description="Panel selection precision: formulas, simulations, analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", parents=[common], help="evaluate the panel law")
    p.add_argument("--q", type=float, required=True, help="selection quantile in (0,1]")
    p.add_argument("--rho", type=float, required=True, help="mean pairwise correlation")
    p.add_argument(
        "--n", type=_parse_int_list, default=[1], help='panel sizes: "3", "1,5", "1..10"'
    )
    p.add_argument(
        "--unclipped",
        action="store_true",
        help="use the raw-q exponent instead of clipping q into [0.07, 0.22]",
    )
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("plan", parents=[common], help="panel size for a precision target")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--target", type=float, required=True, help="precision target in (0,1)")
    p.add_argument("--n-max", type=int, default=30, help="largest panel considered")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("curves", parents=[common], help="simulated P1(q) curves + anchors")
    p.add_argument("--m", type=int, default=2000, help="candidates per trial")
    p.add_argument("--rho", type=float, default=0.8, help="scorer-truth correlation")
    p.add_argument("--trials", type=int, default=500, help="trials per distribution")
    p.add_argument("--t-dof", type=float, default=4.0, help="Student-t degrees of freedom")
    p.add_argument("--points", type=int, default=50, help="quantile grid points")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("scaling", parents=[common], help="exponent fits over a (q, rho) grid")
    p.add_argument("--q", type=_parse_float_list, default=[0.2], help="comma list of q")
    p.add_argument(
        "--rho",
        type=_parse_float_list,
        default=[0.30, 0.40, 0.50, 0.60, 0.70, 0.80],
        help="comma list of target rho",
    )
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="desk",
        help="scan size preset (desk is laptop-scale; paper matches the source runs)",
    )
    p.add_argument(
        "--boost", type=float, default=0.0, help="superstar tail boost (0 disables)"
    )
    p.add_argument(
        "--samples", type=int, default=None, help="override preset panels per size"
    )
    p.add_argument(
        "--max-size", type=int, default=None, help="override preset largest panel"
    )
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("analyze", parents=[common], help="report over a score table")
    p.add_argument("input", type=Path, help="score table (.csv or .json)")
    p.add_argument("--q-points", type=int, default=50, help="quantile grid points")
    p.set_defaults(func=cmd_analyze)

    return parser


def _write_outputs(args, files: dict, **config) -> None:
    """Write the files whose suffix is in --format, then ``run.json``.

    ``files`` maps a file name to its payload: ``(header, rows)`` for a
    ``.csv`` name, the document for ``.json``, and the keyword arguments
    of ``svg_line_plot`` for ``.svg``. Without --out nothing is written.
    """
    if args.out is None:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        suffix = Path(name).suffix[1:]
        if suffix not in args.format:
            continue
        if suffix == "csv":
            write_csv(out / name, *payload)
        elif suffix == "json":
            write_json(out / name, payload)
        else:
            svg_line_plot(out / name, **payload)
    config = {
        "command": args.command,
        "seed": args.seed,
        "threads": args.threads,
        "format": list(args.format),
        **config,
    }
    write_json(out / "run.json", {"tool_version": __version__, "config": config})


def _regime_warning(q: float, rho: float) -> str | None:
    """Print the warning on stderr when (q, rho) is outside the law's regime; return it."""
    if q < 0.05 or rho > 0.9:
        warn = (
            "warning: q < 0.05 or rho > 0.9 is outside the regime the "
            "exponent law was fitted on; treat values as extrapolation"
        )
        print(warn, file=sys.stderr)
        return warn
    return None


def cmd_formula(args) -> int:
    clipped = not args.unclipped
    b = efficiency_exponent(args.q, args.rho, clipped=clipped)
    rows = [
        (n, b, effective_rho(n, args.rho, b), panel_precision(args.q, args.rho, n, b))
        for n in args.n
    ]
    # every argument is checked by now, so a bad value exits without the warning
    warn = _regime_warning(args.q, args.rho)
    header = ("n", "b", "rho_n", "precision")
    print(csv_text(header, rows), end="")

    doc = {
        "q": args.q,
        "rho": args.rho,
        "clipped": clipped,
        "regime_warning": warn,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _write_outputs(
        args,
        {"formula.csv": (header, rows), "formula.json": doc},
        q=args.q,
        rho=args.rho,
        n=args.n,
        clipped=clipped,
    )
    return 0


def cmd_plan(args) -> int:
    n = required_panel_size(args.q, args.rho, args.target, args.n_max)
    # every argument is checked by now, so a bad value exits without the warning
    _regime_warning(args.q, args.rho)
    b = efficiency_exponent(args.q, args.rho)
    achieved = None if n is None else panel_precision(args.q, args.rho, n, b)
    params = {"q": args.q, "rho": args.rho, "target": args.target, "n_max": args.n_max}
    doc = {**params, "required_n": n, "achieved_precision": achieved}
    _write_outputs(
        args, {"plan.json": doc, "plan.csv": (tuple(doc), [tuple(doc.values())])}, **params
    )
    if n is None:
        print(
            f"target {fmt6(args.target)} unachievable within n <= {args.n_max} "
            f"at q={fmt6(args.q)}, rho={fmt6(args.rho)}"
        )
        return 3
    print(
        f"panel of {n} reaches precision {fmt6(achieved)} "
        f"(target {fmt6(args.target)}) at q={fmt6(args.q)}, rho={fmt6(args.rho)}"
    )
    return 0


def cmd_curves(args) -> int:
    if args.m < 10:
        raise DomainError("m must be at least 10")
    if not 0.0 < args.rho < 1.0:
        raise DomainError("rho must lie strictly between 0 and 1")
    if not 2.0 < args.t_dof <= MAX_T_DOF:
        raise DomainError(f"--t-dof must exceed 2 (finite variance) and be at most "
                          f"{MAX_T_DOF:g}; t with more dof is normal to the anchor's accuracy")

    grid = log_q_grid(args.m, args.points)
    # the Student-t anchor needs no curve, so a rho it cannot take fails before any trial
    student_t_grid(args.m, args.rho, args.t_dof)
    root = SeededStream(args.seed)
    curves = {}
    for index, kind in enumerate(DISTRIBUTION_KINDS):
        curves[kind] = simulate_distribution_curve(
            kind, args.t_dof, args.m, args.rho, args.trials, grid, root.derive(index)
        )

    near_02 = int(np.argmin(np.abs(grid - 0.2)))
    p_avg_02 = float(np.mean([curves[kind][near_02] for kind in DISTRIBUTION_KINDS]))
    anchors = compute_anchors(args.m, args.rho, args.t_dof, p_avg_02)
    ref = reference_line(grid, p_avg_02)

    print(
        f"m={args.m} rho={fmt6(args.rho)} trials={args.trials}: "
        f"avg P(0.2)={fmt6(p_avg_02)} "
        f"anchors: normal={fmt6(anchors.normal_limit)} "
        f"t={fmt6(anchors.t_limit)} heavy={fmt6(anchors.heavy_tail_estimate)}"
    )

    header = ("q", *(f"p_{kind}" for kind in DISTRIBUTION_KINDS), "reference")
    rows = np.column_stack([grid, *curves.values(), ref])
    series = [PlotSeries(kind, grid, curves[kind]) for kind in DISTRIBUTION_KINDS]
    series.append(PlotSeries("reference", grid, ref))
    series.append(
        PlotSeries(
            "anchors",
            np.full(3, anchors.q_anchor),
            np.array([anchors.normal_limit, anchors.t_limit, anchors.heavy_tail_estimate]),
            kind="points",
        )
    )
    params = {"m": args.m, "rho": args.rho, "trials": args.trials, "t_dof": args.t_dof}
    files = {
        "curves.csv": (header, rows),
        "anchors.csv": row_table(AnchorSet, [anchors]),
        "curves.json": {
            **params,
            "q_grid": grid,
            "curves": curves,
            "reference": ref,
            "anchors": anchors,
        },
        "curves.svg": dict(
            series=series,
            title=f"P1(q) at rho={fmt6(args.rho)}, m={args.m}",
            xlabel="q (log scale)",
            ylabel="precision",
            xlog=True,
        ),
    }
    _write_outputs(args, files, **params, points=args.points)
    return 0


def cmd_scaling(args) -> int:
    overrides = {"samples_per_size": args.samples, "max_size": args.max_size}
    scan = dataclasses.replace(
        PRESETS[args.preset], **{k: v for k, v in overrides.items() if v is not None}
    )
    rows = b_grid_scan(args.q, args.rho, scan, args.seed, args.boost, args.threads)

    regressions = []
    regression_errors = []
    for q in args.q:
        q_rows = [row for row in rows if row.q == q]
        try:
            regressions.append(regress_b_on_rho(q_rows))
        except DomainError as exc:
            regression_errors.append({"q": q, "error": str(exc)})
            print(f"regression skipped for q={fmt6(q)}: {exc}", file=sys.stderr)

    print(csv_text(*row_table(BGridRow, rows)), end="")
    for reg in regressions:
        print(
            f"q={fmt6(reg.q)}: b ~ {fmt6(reg.intercept)} + {fmt6(reg.slope)}*rho "
            f"(R^2={fmt6(reg.r_squared)})"
        )

    files = {
        "b_grid.csv": row_table(BGridRow, rows),
        "regression.csv": row_table(BRegressionRow, regressions),
        "b_grid.json": {
            "preset": args.preset,
            "rows": rows,
            "regressions": regressions,
            "regression_errors": regression_errors,
        },
    }
    _write_outputs(
        args,
        files,
        q=args.q,
        rho=args.rho,
        preset=args.preset,
        boost=args.boost,
        sizes=list(scan.sizes),
        samples_per_size=scan.samples_per_size,
        n_ais=scan.n_ais,
        m_candidates=scan.m_candidates,
    )
    return 0


def cmd_analyze(args) -> int:
    table = load_scores(args.input)
    report = build_report(table, q_points=args.q_points)
    tasks, summary = report["tasks"], report["summary"]
    modes = (report["variance_weighted"], report["variance_unweighted"])

    for task in tasks:
        print(
            f"task {task['name']}: rho_bar={fmt6(task['rho_bar'])} "
            f"intercept={fmt6(task['intercept'])} "
            f"({task['intercept_vs_rho_pct']:+.1f}% vs rho_bar)"
        )
        for row in task["sb_rows"]:
            pct = "undefined" if row.pct_pred_vs_obs is None else f"{row.pct_pred_vs_obs:+.1f}%"
            print(
                f"  panel of {row.size}: observed {fmt6(row.observed)} "
                f"vs Spearman-Brown {fmt6(row.predicted)} ({pct})"
            )
    print(
        f"overall: mean={summary['mean']:.2f} sd={summary['sd']:.2f} "
        f"range [{summary['min']:.2f}, {summary['max']:.2f}]"
    )
    for level, stats in summary["by_attr"].items():
        print(f"  {level}: mean={stats['mean']:.2f} sd={stats['sd']:.2f} (n={stats['count']})")
    for vq in modes:
        r, p = ("undefined",) * 2 if vq["r"] is None else (fmt6(vq["r"]), fmt6(vq["p_value"]))
        print(f"variance-quality ({vq['truth_mode']}): r={r} p={p}")

    # The table rows are generators, consumed only when their file is
    # written, so no table is held in memory while report.json is built.
    files = {
        "report.json": report,
        "tasks.csv": (
            ("task", "rho_bar", "intercept", "intercept_vs_rho_pct"),
            (
                (t["name"], t["rho_bar"], t["intercept"], t["intercept_vs_rho_pct"])
                for t in tasks
            ),
        ),
        "subsets.csv": row_table(
            SubsetSizeRow,
            ((t["name"], r) for t in tasks for r in t["subset_rows"]),
            lead="task",
        ),
        "spearman_brown.csv": row_table(
            SBComparisonRow,
            ((t["name"], r) for t in tasks for r in t["sb_rows"]),
            lead="task",
        ),
        "curves.csv": (
            ("task", "q", "p_avg", *(f"p_{ai}" for ai in report["ai_names"])),
            (
                (t["name"], *row)
                for t in tasks
                for row in np.column_stack(
                    [t["q_grid"], t["average_values"], t["per_ai_values"].T]
                )
            ),
        ),
        "qq.csv": (("theoretical", "sample"), report["qq_pairs"]),
        "variance_quality.csv": row_table(
            VarianceQualityRow,
            ((vq["truth_mode"], r) for vq in modes for r in vq["rows"]),
            lead="truth_mode",
        ),
    }
    for t in tasks:
        series = [
            PlotSeries(ai, t["q_grid"], t["per_ai_values"][j])
            for j, ai in enumerate(report["ai_names"])
        ]
        series.append(PlotSeries("average", t["q_grid"], t["average_values"]))
        files[f"curves_{t['name']}.svg"] = dict(
            series=series,
            title=f"Precision curves: {t['name']}",
            xlabel="q",
            ylabel="precision",
        )
    _write_outputs(args, files, input=str(args.input), q_points=args.q_points)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PanelMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
