"""The benchmark's workloads: command lines and generated inputs.

Every workload runs one ``panelmetrics`` subcommand single-process
(``--threads 1``) and writes csv, json and svg into ``OUT`` inside the
operation's working directory. Paths are relative, so the files the
program writes do not depend on where the checkout lives.

Inputs depend only on the workload seed. The ``analyze`` score table is
built with numpy and written with ``empirics.save_scores``; the program
then sees only that file and its flags.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

OUT = "out"
SCORES = "scores.csv"
FORMATS = "csv,json,svg"

SCALING_Q = 0.2
DESK_RHOS = (0.4, 0.7)
PAPER_RHOS = (0.5,)
PAPER_MAX_SIZE = 10

# one population correlation per task of the analyze table
ANALYZE_TASK_RHOS = (0.3, 0.5, 0.7)
ANALYZE_CANDIDATES = 600
ANALYZE_SCORERS = 8
ANALYZE_ATTRS = ("junior", "senior")

NAMES = ("scaling-desk", "scaling-paper", "curves", "analyze")


def _common(seed: int) -> list[str]:
    return [f"--seed={seed}", "--threads", "1", "--out", OUT, "--format", FORMATS]


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def argv(name: str, seed: int) -> list[str]:
    """The ``panelmetrics`` arguments of one operation."""
    if name == "scaling-desk":
        return ["scaling", "--preset", "desk", "--q", repr(SCALING_Q),
                "--rho", _floats(DESK_RHOS), *_common(seed)]
    if name == "scaling-paper":
        return ["scaling", "--preset", "paper", "--q", repr(SCALING_Q),
                "--rho", _floats(PAPER_RHOS), "--max-size", str(PAPER_MAX_SIZE),
                *_common(seed)]
    if name == "curves":
        return ["curves", *_common(seed)]
    if name == "analyze":
        return ["analyze", SCORES, *_common(seed)]
    raise ValueError(f"unknown workload {name!r}")


def analyze_matrices(seed: int) -> list[tuple[np.ndarray, list[str]]]:
    """Score matrix and attribute column of each task of the analyze table.

    Scorer j of a task with population correlation c scores a candidate
    as ``center_j + scale_j * (sqrt(c) * common + sqrt(1 - c) * own_j)``,
    rounded to one decimal as human-style ratings are. Rounding leaves
    ties, so the lowest-index tie-break is exercised.
    """
    rng = np.random.default_rng([seed & (2**64 - 1), 0xA11A])
    m, n = ANALYZE_CANDIDATES, ANALYZE_SCORERS
    tasks = []
    for c in ANALYZE_TASK_RHOS:
        common = rng.standard_normal(m)
        own = rng.standard_normal((m, n))
        raw = np.sqrt(c) * common[:, None] + np.sqrt(1.0 - c) * own
        center = rng.uniform(5.0, 7.0, n)
        scale = rng.uniform(0.8, 1.6, n)
        scores = np.round(center + scale * raw, 1)
        attrs = [ANALYZE_ATTRS[i] for i in rng.integers(0, len(ANALYZE_ATTRS), m)]
        tasks.append((scores, attrs))
    return tasks


def write_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write the files the operation's command reads (only analyze has any)."""
    if name != "analyze":
        return
    from panelmetrics.empirics import ScoreTable, TaskScores, save_scores

    tasks = tuple(
        TaskScores(
            name=f"task{t + 1}",
            candidate_ids=tuple(f"c{i:04d}" for i in range(scores.shape[0])),
            attrs=tuple(attrs),
            matrix=scores,
        )
        for t, (scores, attrs) in enumerate(analyze_matrices(seed))
    )
    ai_names = tuple(f"ai{j + 1}" for j in range(ANALYZE_SCORERS))
    save_scores(ScoreTable(ai_names=ai_names, tasks=tasks), workdir / SCORES)
