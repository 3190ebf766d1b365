"""Compare the CLI output of a git revision with that of the working tree.

    python3 tests/outdiff.py [REV]

REV (default HEAD) is unpacked with ``git archive`` into a temporary
directory. A fixed command set then runs on that tree and on the working
tree, each command in a fresh ``python -m adoptkit.cli`` process that
imports the package from its tree's ``src/``. The set: ``compare`` and
``fit`` of all six families on the three builtins; ``test --which
lr|shape|vuong|dw|bp`` on the three builtins; ``crlb``, ``simulate``,
``pilot``, ``phase`` and ``threshold``; and the scenario grid of CI's
determinism step under ``benchmark``.

Per command it prints whether the bytes (stdout, stderr and exit status)
are equal; if not, the numeric fields that moved and the largest relative
move among them. Output is JSON, except ``simulate``'s CSV, whose cells are
compared as the fields.

It then compares the output digests of the first two passes of the
``refits``, ``mc_scenarios`` and ``interactive`` benchmark workloads on four
seeds, each workload and seed in a fresh process that imports its tree's
``perfbench/workloads.py`` (and writes no bytecode there). No CLI command
reaches the pre/post bootstrap or the profile CI, a second pass repeats the
first one's times on new data, and ``interactive`` runs its commands in one
process, where what a command leaves in the package's memos (the start grid,
the logistic fit) meets the next command.

The exit status is 0 when every command and digest is equal, 1 when one is
not, and 2 when REV cannot be unpacked.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILTINS = ["synthetic21", "enterprise78", "enterprise78raw"]
FAMILIES = ["twocomp", "logistic", "bass", "bilogistic", "doubleexp", "logisticbump"]
THETA = ["--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25"]
#: the scenario grid of the CI determinism step
GRID = "depths = 0, 0.2\nsigmas = 0.05\nrhos = 0, 0.3\nn_points = 21\nreplicates = 20\nseed = 7\nshape_boot = 50\n"
#: the workloads and seeds (the default and the hold-out) whose first PASSES pass digests are compared
WORKLOADS, SEEDS, PASSES = ["refits", "mc_scenarios", "interactive"], [1, 2, 3, 20261017], 2
#: prints a workload's pass digests, run in its tree as ``python -c DIGESTS workload seed passes``
DIGESTS = """
import json, sys
sys.path.insert(0, "perfbench")
import workloads
wl = workloads.WORKLOADS[sys.argv[1]](json.load(open("perfbench/spec.json")), int(sys.argv[2]))
for p in range(int(sys.argv[3])):
    print(workloads.digest([(r.label, r.output) for r in wl.run_pass(wl.inputs(p))]))
"""


def commands(grid: str) -> list[list[str]]:
    data = [["--data", f"builtin:{name}"] for name in BUILTINS]
    return [
        *(["compare", *d] for d in data),
        *(["fit", *d, "--family", family] for d in data for family in FAMILIES),
        *(["test", "--which", which, *d] for d in data for which in ["lr", "shape", "vuong", "dw", "bp"]),
        ["crlb", *THETA, "--times", "0,1,2,18,19,20", "--sigma", "0.1"],
        ["simulate", *THETA, "--sigma", "0.05", "--seed", "7"],
        ["pilot", "--seed", "42", "--n-tasks", "200"],
        ["phase", *THETA],
        ["threshold", "--r-chat", "0.51", "--delta-tau", "0.3", "--delta-phi", "0.1", "--mu-c", "1.0",
         "--sigma-mu", "0.05"],
        ["benchmark", "--config", grid],
    ]


def run(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=tree, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def fields(text: str) -> dict[str, object]:
    """{path: value} of every leaf of a JSON text, or of every cell of a CSV one."""
    try:
        doc = json.loads(text)
    except ValueError:
        return {f"{i}:{j}": _number(cell) for i, line in enumerate(text.splitlines())
                for j, cell in enumerate(line.split(","))}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        else:
            out[path] = node

    walk(doc, "")
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


_MISSING = object()


def moves(a: str, b: str) -> list[tuple[str, float | None]]:
    """(path, relative move) of each field that differs between ``a`` and
    ``b``; the move is None where the field is not a number on both sides
    (or exists on one side only)."""
    fa, fb = fields(a), fields(b)
    out = []
    for path in sorted(fa.keys() | fb.keys()):
        x, y = fa.get(path, _MISSING), fb.get(path, _MISSING)
        if x == y and type(x) is type(y):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        out.append((path, abs(x - y) / max(abs(x), abs(y)) if numeric else None))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the revision to compare with (default HEAD)")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(f"error: cannot unpack {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        grid = Path(tmp) / "grid.cfg"
        grid.write_text(GRID)
        cmds = commands(str(grid))
        equal = 0
        for argv_ in cmds:
            cli = ["-m", "adoptkit.cli", *argv_]
            (code_a, out_a, err_a), (code_b, out_b, err_b) = run(base, cli), run(ROOT, cli)
            label = " ".join(a if a != str(grid) else "grid.cfg" for a in argv_)
            if (code_a, out_a, err_a) == (code_b, out_b, err_b):
                equal += 1
                print(f"equal    {label}")
                continue
            moved = moves(out_a, out_b)
            numeric = [rel for _, rel in moved if rel is not None]
            notes = [f"{len(numeric)} numeric fields moved, largest relative move {max(numeric, default=0.0):.3g}"]
            if len(numeric) < len(moved):
                notes.append(f"{len(moved) - len(numeric)} other fields changed")
            if code_a != code_b:
                notes.append(f"exit {code_a} -> {code_b}")
            if err_a != err_b:
                notes.append("stderr differs")
            print(f"DIFFERS  {label}: {'; '.join(notes)}")
            for path, rel in moved[:20]:
                print(f"    {path}: " + ("changed" if rel is None else f"moved {rel:.3g}"))
            if len(moved) > 20:
                print(f"    ... and {len(moved) - 20} more")
        print(f"{equal} of {len(cmds)} commands byte-equal between {rev} and the working tree")
        runs = [(name, seed) for name in WORKLOADS for seed in SEEDS]
        same = 0
        for name, seed in runs:
            argv_ = ["-c", DIGESTS, name, str(seed), str(PASSES)]
            a, b = run(base, argv_), run(ROOT, argv_)
            label = f"{name} --seed {seed}, passes 0-{PASSES - 1}"
            if a == b and a[0] == 0:
                same += 1
                print(f"equal    {label}")
            else:
                print(f"DIFFERS  {label}: digests {[d[:12] for d in a[1].split()]} -> {[d[:12] for d in b[1].split()]}"
                      + ("" if a[0] == b[0] == 0 else f"; exit {a[0]} -> {b[0]}: {b[2].strip()[-300:]}"))
        print(f"{same} of {len(runs)} workload digests equal between {rev} and the working tree")
    return 0 if equal == len(cmds) and same == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
