"""Compare every output of a fixed command list between a git revision and
this checkout; exit 0 only if all are byte-identical.

Run:  python scripts/compare_outputs.py REV

REV's src/ is exported with `git archive` into a temporary directory (no
network, no change to .git).  COMMANDS then run in both trees, one tree at
a time, as `python -m twolayer_opt` with that tree's src/ on PYTHONPATH,
each from its own empty work directory under the same relative paths and
the same environment.  The list holds the benchmark's four workloads at data
seed 1, as perfbench/workloads.py defines them, a tall D (N < n*d),
`verify theorem1` and `rank`, `diagnose --out` at d = 3 and d = 25, and
README's example config.

Every file written is compared by sha256, a manifest without its
wall_time_s, and so are each command's stdout, stderr and exit code.  Each
difference is printed on one line; the tolerance is 0.
"""

import argparse
import hashlib
import io
import json
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


def digests(work: Path) -> dict:
    """sha256 of every file under work by relative path; a manifest's
    without its wall_time_s."""
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[str(path.relative_to(work))] = hashlib.sha256(data).hexdigest()
    return out


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        runs, files = [], []
        for i, tree in enumerate((tmp / "rev", ROOT)):
            runs.append(run_commands(tree, tmp / f"work{i}"))
            files.append(digests(tmp / f"work{i}"))
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
            differences.append(f"differs: {name}")
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
