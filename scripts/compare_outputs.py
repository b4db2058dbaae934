"""Compare every output of a fixed command list between a git revision and
this checkout; exit 0 only if all are byte-identical.

Run:  python scripts/compare_outputs.py REV

REV's src/ is exported with `git archive` into a temporary directory (no
network, no change to .git).  COMMANDS then run in both trees, one tree at
a time, as `python -m twolayer_opt` with that tree's src/ on PYTHONPATH,
each from its own empty work directory under the same relative paths and
the same environment.  The list holds the benchmark's four workloads at data
seed 1, as perfbench/workloads.py defines them, a tall D (N < n*d),
`verify theorem1` and `rank`, `diagnose --out` at d = 3 and d = 25,
`train` at d = 3 for the three activations built from another (at the
default --w-scale and at 30), and README's example config.

Every file written is compared byte for byte, a manifest without its
wall_time_s, and so are each command's stdout, stderr and exit code.  Each
difference is printed on one line: for a table (.csv, .dat) with it the
largest relative difference |a - b| / max(|a|, |b|) in each column that
differs, and for a JSON document the keys whose values differ.  The
tolerance is 0: any difference exits 1.
"""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _workload_commands() -> list:
    """Each benchmark workload's set-up and commands at data and run seed 1,
    under a directory named after the workload."""
    cmds = []
    for w in WORKLOADS.values():
        out = Path(w.name)
        cmds += [w.setup_argv(out, 1), *w.commands(out / "data.csv", out, 1)]
    return [[str(arg) for arg in argv] for argv in cmds]


COMMANDS = [
    *_workload_commands(),
    # N = 600 < n*d = 900: D is tall, the paper's regime
    ["train", "--d", "30", "--n-samples", "600", "--n-outer", "5", "--out", "tall"],
    ["verify", "theorem1", "--out", "verify"],
    ["verify", "rank", "--out", "verify"],
    ["diagnose", "--data", "sgd_small/data.csv", "--out", "diagnose", "--name", "d3"],
    ["diagnose", "--data", "cert_overparam/data.csv", "--out", "diagnose",
     "--name", "d25"],
    # the activations built from another, at the default --w-scale and at 30
    *[["train", "--d", "3", "--n-samples", "9", "--activation", act, *scale,
       "--out", f"paired/{act}{'-w30' if scale else ''}"]
      for act in ("sigmoid_symmetric", "gaussian_symmetric", "elliot")
      for scale in ((), ("--w-scale", "30"))],
    ["generate", "--config", "readme.json", "--out", "readme"],
    ["train", "--config", "readme.json"],
    ["plotdata", "--run-dir", "runs"],
]


def readme_config() -> str:
    """README's example config, the first ```json block."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("```json\n", 1)[1].split("```", 1)[0]


def export(rev: str, dest: Path) -> None:
    """REV's src/ under dest, by `git archive`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"}
                                    if hasattr(tarfile, "data_filter") else {}))


def run_commands(tree: Path, work: Path) -> list:
    """(exit code, stdout, stderr) of each command, run from work with
    tree/src on PYTHONPATH."""
    work.mkdir()
    (work / "readme.json").write_text(readme_config())
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "twolayer_opt", *argv],
                              cwd=work, env=env, capture_output=True, text=True)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def contents(work: Path) -> dict:
    """The bytes of every file under work by relative path; a manifest's
    without its wall_time_s."""
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[str(path.relative_to(work))] = data
    return out


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values or two NaNs, inf where
    only one side is finite or a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b)
    return diff / max(abs(a), abs(b)) if math.isfinite(diff) else math.inf


def read_table(data: bytes):
    """(header, rows) of a table file: its fields split at "," or blanks,
    the first line the header when it is not all numbers, else None."""
    rows = [line.replace(",", " ").split() for line in data.decode().splitlines()]
    header = None
    if rows:
        try:
            [float(x) for x in rows[0]]
        except ValueError:
            header = rows.pop(0)
    return header, [[float(x) for x in row] for row in rows]


def table_report(old: bytes, new: bytes) -> str:
    """The largest relative difference in each column of two tables where
    it is not 0, named by the header or by 0-based index."""
    (header, old_rows), (new_header, new_rows) = read_table(old), read_table(new)
    if header != new_header or list(map(len, old_rows)) != list(map(len, new_rows)):
        return "header or shape differs"
    worst = {}
    for old_row, new_row in zip(old_rows, new_rows):
        for j, (a, b) in enumerate(zip(old_row, new_row)):
            worst[j] = max(worst.get(j, 0.0), relative_difference(a, b))
    columns = [f"{header[j] if header and j < len(header) else j} {w:.3g}"
               for j, w in worst.items() if w]
    return ("largest relative difference: " + ", ".join(columns) if columns
            else "equal values, different text")


def flatten(value, prefix: str = "") -> dict:
    """A JSON value as {dotted key path: leaf value}."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return out or {prefix: value}


def json_report(old: bytes, new: bytes) -> str:
    """The keys whose values differ between two JSON documents, or that
    only one holds."""
    old, new = flatten(json.loads(old)), flatten(json.loads(new))
    keys = [k for k in sorted(old.keys() | new.keys())
            if k not in old or k not in new
            or json.dumps(old[k]) != json.dumps(new[k])]
    return "keys differ: " + ", ".join(keys) if keys else "equal values, different text"


def report(name: str, old: bytes, new: bytes) -> str:
    """One line naming a file that differs, with a table's or a JSON
    document's report where the file parses as one."""
    line = f"differs: {name}"
    reader = (table_report if name.endswith((".csv", ".dat"))
              else json_report if name.endswith(".json") else None)
    try:
        return f"{line} ({reader(old, new)})" if reader else line
    except ValueError:   # a table or JSON document that does not parse
        return line


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        runs, files = [], []
        for i, tree in enumerate((tmp / "rev", ROOT)):
            runs.append(run_commands(tree, tmp / f"work{i}"))
            files.append(contents(tmp / f"work{i}"))
    (old_runs, new_runs), (old_files, new_files) = runs, files

    differences = []
    for argv, old, new in zip(COMMANDS, old_runs, new_runs):
        for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                differences.append(f"{what} differs: {' '.join(argv)}")
        if old[0] == new[0] != 0:   # the same failure is no difference
            print(f"note: exit code {new[0]} on both sides: {' '.join(argv)}")
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files:
            differences.append(f"only at {rev}: {name}")
        elif name not in old_files:
            differences.append(f"only in the checkout: {name}")
        elif old_files[name] != new_files[name]:
            differences.append(report(name, old_files[name], new_files[name]))
    for line in differences:
        print(line)
    print(f"{len(COMMANDS)} commands and {len(new_files)} files compared with "
          f"{rev}: " + (f"{len(differences)} difference(s)" if differences
                        else "all byte-identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    sys.exit(compare(parser.parse_args().rev))
