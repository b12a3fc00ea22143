"""Check that this checkout's commands give the same outputs as another's.

Usage: python3 tools/same_outputs.py PARENT_CHECKOUT

Runs a fixed list of ``panelmetrics`` command lines twice each, in fresh
interpreters: once importing ``src`` of PARENT_CHECKOUT and once
importing ``src`` of this checkout. Every run starts in its own empty
directory that holds the same input files, which this checkout writes
once. For every case it compares stdout, stderr, the exit code and the
sha256 of every file written under ``out``, ``run.json`` included. It
prints one line per case and one per difference, and exits 1 if any
case differs, 0 otherwise.

There are 64 cases: the four benchmark workloads
(``perfbench/workloads.py``) at seeds 0-2, then 52 small runs of every
command, including the paths that exit 2, 3 and 4, a ``--threads``
below 1, a non-numeric ``--n``, a ``formula --q`` of -1 (outside the
law's regime as well as its domain), a ``formula`` outside the law's
regime with an ``--n`` of 0, a ``plan`` outside the law's
regime, a ``plan --n-max`` of 0, an ``analyze --q-points`` of 1,
``curves`` at m = 10 on a 50-point grid (whose top-k sizes repeat), a
``--t-dof`` of inf and of 1e300, a ``curves --trials`` of 0, ``curves``
at m = 100,000 with ``--t-dof`` 1e6, a ``curves --rho`` too close to 1
for the Student-t anchor,
the superstar tail of ``scaling --boost``, a ``scaling`` run of 131
samples per size (two 64-sample scan blocks and a tail), one of 65
samples at a ``--q`` of 0.001 (a top set of one candidate and a tail
block of one sample), a ``scaling``
run whose only panel size is 1, a ``scaling --q`` of 1 (which selects
every candidate), a ``scaling`` ``--max-size`` above the
preset's scorer count, a ``scaling`` grid with a repeated ``--q``, a
``scaling`` grid at ``--rho`` 1e-9 and 0.001, whose scorers' signal shares
sit at their lower clip and whose fitted b sits at the end of its bracket, a
table whose scorers all give ranks, one with a scorer that always gives
7.3, one of a single task with two scorers, one of a single task
scaled by 1e200, whose squared spread overflows, one whose first
scorer is named é1 and whose first task is named a,"b", which CSV must
quote and JSON escape, one whose first two scorers share a name, one
of a single task whose two scorers are exactly opposite, one of two
uncorrelated scorers (mean correlation exactly 0), two whose scorer
variances or correlations with the proxy are equal up to rounding, and
one of scores near 1e-300, whose squared spread underflows. A full
comparison takes a few minutes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from panelmetrics.empirics import ScoreTable, TaskScores, load_scores, save_scores  # noqa: E402

OUT = "out"
ALL = "csv,json,svg"

# (name, argv, input files the command reads)
CASES = [
    (f"{name} seed {seed}", workloads.argv(name, seed),
     (f"seed{seed}/{workloads.SCORES}",) if name == "analyze" else ())
    for name in workloads.NAMES
    for seed in range(3)
] + [
    ("formula", ["formula", "--q", "0.2", "--rho", "0.55", "--n", "1,3,25",
                 "--out", OUT], ()),
    ("formula regime warning", ["formula", "--q", "0.01", "--rho", "0.95",
                                "--out", OUT], ()),
    ("formula empty n", ["formula", "--q", "0.2", "--rho", "0.5", "--n", ","], ()),
    ("formula unclipped", ["formula", "--q", "0.5", "--rho", "0.55", "--n", "1..200",
                           "--unclipped", "--out", OUT, "--format", ALL], ()),
    ("formula threads -3", ["formula", "--q", "0.2", "--rho", "0.5", "--threads", "-3",
                            "--out", OUT], ()),
    ("formula n x", ["formula", "--q", "0.2", "--rho", "0.5", "--n", "x"], ()),
    ("formula q -1", ["formula", "--q", "-1", "--rho", "0.5"], ()),
    ("formula regime warning n 0", ["formula", "--q", "0.01", "--rho", "0.5",
                                    "--n=0..2"], ()),
    ("plan reachable", ["plan", "--q", "0.2", "--rho", "0.55", "--target", "0.75",
                        "--out", OUT], ()),
    ("plan exit 3", ["plan", "--q", "0.2", "--rho", "0.55", "--target", "0.99",
                     "--n-max", "5", "--out", OUT], ()),
    ("plan exit 2", ["plan", "--q", "0.2", "--rho", "0.55", "--target", "1.5"], ()),
    ("plan regime warning", ["plan", "--q", "0.01", "--rho", "0.95", "--target", "0.9",
                             "--out", OUT], ()),
    ("plan n-max 0", ["plan", "--q", "0.2", "--rho", "0.5", "--target", "0.5",
                      "--n-max", "0"], ()),
    ("curves", ["curves", "--m", "300", "--trials", "20", "--seed=4", "--out", OUT,
                "--format", ALL], ()),
    ("curves svg", ["curves", "--m", "120", "--trials", "10", "--points", "12",
                    "--out", OUT, "--format", "svg"], ()),
    ("curves t-dof 3", ["curves", "--t-dof", "3", "--m", "300", "--trials", "20",
                        "--out", OUT, "--format", ALL], ()),
    ("curves exit 2", ["curves", "--m", "5"], ()),
    ("curves m 10", ["curves", "--m", "10", "--points", "50", "--trials", "3",
                     "--out", OUT, "--format", ALL], ()),
    ("curves t-dof inf", ["curves", "--t-dof", "inf", "--m", "50", "--trials", "2"], ()),
    ("curves t-dof 1e300", ["curves", "--t-dof", "1e300", "--m", "50", "--trials", "2"], ()),
    ("curves trials 0", ["curves", "--trials", "0"], ()),
    ("curves large m", ["curves", "--m", "100000", "--rho", "0.99", "--t-dof", "1e6",
                        "--trials", "2", "--points", "5", "--out", OUT, "--format", ALL], ()),
    ("curves rho near 1", ["curves", "--rho", "0.9999999999999999", "--out", OUT], ()),
    ("scaling grid", ["scaling", "--q", "0.1,0.2", "--rho", "0.4,0.6", "--samples", "60",
                      "--max-size", "8", "--threads", "2", "--out", OUT,
                      "--format", ALL], ()),
    ("scaling single rho", ["scaling", "--rho", "0.5", "--samples", "40",
                            "--max-size", "5", "--out", OUT], ()),
    ("scaling exit 2 at second q", ["scaling", "--q", "0.2,1.5", "--samples", "20",
                                    "--max-size", "4"], ()),
    ("scaling 131 samples", ["scaling", "--rho", "0.4,0.6", "--samples", "131",
                             "--max-size", "6", "--out", OUT, "--format", ALL], ()),
    ("scaling 65 samples at q 0.001", ["scaling", "--preset", "desk", "--q", "0.001", "--rho",
                                       "0.4,0.7", "--samples", "65", "--max-size", "3",
                                       "--out", OUT, "--format", ALL], ()),
    ("scaling boost", ["scaling", "--rho", "0.4,0.6", "--samples", "40", "--max-size", "6",
                       "--boost", "1.0", "--out", OUT, "--format", ALL], ()),
    ("scaling max-size 1", ["scaling", "--rho", "0.3,0.7", "--max-size", "1",
                            "--out", OUT], ()),
    ("scaling q 1", ["scaling", "--q", "1", "--rho", "0.4,0.7", "--samples", "5",
                     "--max-size", "3", "--out", OUT], ()),
    ("scaling max-size above scorers", ["scaling", "--max-size", "150", "--samples", "5",
                                        "--out", OUT], ()),
    ("scaling repeated q", ["scaling", "--q", "0.2,0.2", "--rho", "0.4,0.6", "--samples",
                            "20", "--max-size", "3", "--out", OUT], ()),
    ("scaling boost nan", ["scaling", "--rho", "0.5", "--samples", "10", "--max-size", "3",
                           "--boost", "nan"], ()),
    ("scaling rho at the r clip", ["scaling", "--q", "0.2", "--rho", "1e-9,0.001", "--samples",
                                   "20", "--max-size", "3", "--out", OUT], ()),
    ("analyze csv", ["analyze", workloads.SCORES, "--threads", "2", "--out", OUT,
                     "--format", ALL], (f"seed0/{workloads.SCORES}",)),
    ("analyze json", ["analyze", "scores.json", "--out", OUT, "--format", "json"],
     ("seed0/scores.json",)),
    ("analyze json 20 points", ["analyze", "scores.json", "--q-points", "20",
                                "--out", OUT, "--format", ALL], ("seed0/scores.json",)),
    ("analyze 1 point", ["analyze", "scores.json", "--q-points", "1", "--out", OUT],
     ("seed0/scores.json",)),
    ("analyze rank-scored", ["analyze", "ranks.csv", "--out", OUT, "--format", ALL],
     ("ranks.csv",)),
    ("analyze repeated value", ["analyze", "repeated.csv", "--out", OUT],
     ("repeated.csv",)),
    ("analyze two scorers", ["analyze", "pair.csv", "--out", OUT, "--format", ALL],
     ("pair.csv",)),
    ("analyze huge scores", ["analyze", "huge.csv", "--out", OUT], ("huge.csv",)),
    ("analyze quoted and non-ASCII names", ["analyze", "names.csv", "--out", OUT,
                                            "--format", ALL], ("names.csv",)),
    ("analyze repeated scorer name", ["analyze", "twins.csv", "--out", OUT], ("twins.csv",)),
    ("analyze opposite scorers", ["analyze", "opposite.csv", "--out", OUT],
     ("opposite.csv",)),
    ("analyze zero correlation", ["analyze", "zero.csv", "--out", OUT], ("zero.csv",)),
    ("analyze multiple scorers", ["analyze", "multiples.csv", "--out", OUT, "--format", ALL],
     ("multiples.csv",)),
    ("analyze shared score set", ["analyze", "shared.csv", "--out", OUT, "--format", ALL],
     ("shared.csv",)),
    ("analyze tiny scores", ["analyze", "tiny.csv", "--out", OUT], ("tiny.csv",)),
    ("analyze missing file", ["analyze", "absent.csv", "--out", OUT], ()),
    ("analyze malformed row", ["analyze", "bad.csv", "--out", OUT], ("bad.csv",)),
]

RUNNER = "import sys; from panelmetrics.cli import main; sys.exit(main(sys.argv[1:]))"


def write_inputs(inputs: Path) -> None:
    """The analyze tables (seeds 0-2 as CSV; seed 0 also as JSON, with
    each column replaced by its ranks 1..m, as its first two tasks with
    the third scorer always 7.3, as its first task's first two scorers
    as its first task times 1e200, with its first scorer named é1 and
    its first task named a,"b", with its second scorer named as its first,
    and as its first task's first scorer beside its negation), four small
    tables at the edges of the correlation rules and a bad CSV."""
    for seed in range(3):
        (inputs / f"seed{seed}").mkdir(parents=True)
        workloads.write_inputs("analyze", seed, inputs / f"seed{seed}")
    table = load_scores(inputs / "seed0" / workloads.SCORES)
    save_scores(table, inputs / "seed0" / "scores.json")
    ranked = [
        dataclasses.replace(task, matrix=np.argsort(np.argsort(
            task.matrix, axis=0, kind="stable"), axis=0) + 1.0)
        for task in table.tasks
    ]
    save_scores(dataclasses.replace(table, tasks=tuple(ranked)), inputs / "ranks.csv")
    repeated = []
    for task in table.tasks[:2]:
        matrix = task.matrix.copy()
        matrix[:, 2] = 7.3
        repeated.append(dataclasses.replace(task, matrix=matrix))
    save_scores(dataclasses.replace(table, tasks=tuple(repeated)), inputs / "repeated.csv")
    first = table.tasks[0]
    pair = dataclasses.replace(first, matrix=first.matrix[:, :2])
    save_scores(ScoreTable(ai_names=table.ai_names[:2], tasks=(pair,)), inputs / "pair.csv")
    huge = dataclasses.replace(first, matrix=first.matrix * 1e200)
    save_scores(dataclasses.replace(table, tasks=(huge,)), inputs / "huge.csv")
    quoted = dataclasses.replace(first, name='a,"b"')
    save_scores(ScoreTable(ai_names=("é1", *table.ai_names[1:]), tasks=(quoted, *table.tasks[1:])),
                inputs / "names.csv")
    save_scores(dataclasses.replace(table, ai_names=(table.ai_names[0], *table.ai_names[:-1])),
                inputs / "twins.csv")
    opposite = dataclasses.replace(first, matrix=np.column_stack([first.matrix[:, 0],
                                                                  -first.matrix[:, 0]]))
    save_scores(ScoreTable(ai_names=("a", "b"), tasks=(opposite,)), inputs / "opposite.csv")
    small = {
        # two uncorrelated scorers; a, 2a and 3a + 1; four orders of one score
        # set; two scorers whose squared spread underflows
        "zero": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "multiples": [[i, 2.0 * i, 3.0 * i + 1] for i in range(6)],
        "shared": np.array([5.3, 6.1, 6.8, 7.2, 7.9, 8.4, 9.0, 9.6])[np.array([
            [0, 1, 2, 3, 4, 5, 6, 7], [5, 0, 6, 4, 7, 1, 2, 3],
            [0, 3, 6, 1, 4, 5, 2, 7], [1, 0, 4, 2, 7, 5, 3, 6],
        ])].T,
        "tiny": [[1e-300, 2e-300], [2e-300, 1e-300], [3e-300, 4e-300], [4e-300, 3e-300]],
    }
    for name, rows in small.items():
        mat = np.array(rows, dtype=float)
        m, n_ai = mat.shape
        task = TaskScores("t", tuple(f"c{j}" for j in range(m)), ("",) * m, mat)
        save_scores(ScoreTable(tuple("abcd"[:n_ai]), (task,)), inputs / f"{name}.csv")
    (inputs / "bad.csv").write_text("task,candidate_id,attr,ai_1,ai_2\na,c0,,1.0,oops\n")


def run(src: Path, argv: list[str], files: tuple[str, ...], inputs: Path,
        workdir: Path) -> dict:
    """One command in a fresh interpreter; its streams, exit code and digests."""
    workdir.mkdir(parents=True)
    for rel in files:
        shutil.copy(inputs / rel, workdir / Path(rel).name)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=workdir, env=env,
                          capture_output=True)
    out = workdir / OUT
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit code": proc.returncode, "files": digests}


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return f"line {i + 1}: {la[:120]!r} vs {lb[:120]!r}"
    return f"{len(lines_a)} lines vs {len(lines_b)} lines"


def differences(parent: dict, ours: dict) -> list[str]:
    """Each way the two runs differ, parent first."""
    found = []
    for stream in ("stdout", "stderr"):
        if parent[stream] != ours[stream]:
            found.append(f"{stream} {first_difference(parent[stream], ours[stream])}")
    if parent["exit code"] != ours["exit code"]:
        found.append(f"exit code {parent['exit code']} vs {ours['exit code']}")
    for name in sorted(parent["files"].keys() | ours["files"].keys()):
        a, b = parent["files"].get(name), ours["files"].get(name)
        if a is None or b is None:
            side = "this checkout" if a is None else "the parent"
            found.append(f"{OUT}/{name} written only by {side}")
        elif a != b:
            found.append(f"{OUT}/{name} differs")
    return found


def main() -> int:
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "src" / "panelmetrics").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src = Path(sys.argv[1]).resolve() / "src"
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_inputs(tmp / "inputs")
        for i, (name, argv, files) in enumerate(CASES):
            parent = run(parent_src, argv, files, tmp / "inputs", tmp / f"{i}-parent")
            ours = run(ROOT / "src", argv, files, tmp / "inputs", tmp / f"{i}-ours")
            found = differences(parent, ours)
            differing += bool(found)
            print(f"{'DIFF' if found else 'same'}  {name} "
                  f"(exit {ours['exit code']}, {len(ours['files'])} files)", flush=True)
            for line in found:
                print(f"      {line}", flush=True)
    print(f"{len(CASES) - differing} of {len(CASES)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
