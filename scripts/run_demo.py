"""End-to-end demo: generate a realizable dataset, train with three seeds,
diagnose the trained point against a random one, and emit plot files.

Run:  python scripts/run_demo.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from twolayer_opt.cli import main


def demo(workdir: Path) -> int:
    data = workdir / "data"
    runs = workdir / "runs"
    steps = [
        ["generate", "--d", "3", "--n-samples", "9", "--data-seed", "7",
         "--activation", "sigmoid", "--out", str(data), "--name", "demo",
         "--warn-overparam", "--force"],
        ["train", "--data", str(data / "demo.csv"), "--activation", "sigmoid",
         "--out", str(runs), "--name", "demo", "--reps", "3",
         "--n-outer", "120", "--n-inner", "25", "--sigma", "0.2",
         "--seed", "0", "--force"],
        ["diagnose", "--data", str(data / "demo.csv"), "--seed", "1",
         "--out", str(workdir / "diag"), "--force"],
        ["plotdata", "--run-dir", str(runs), "--force"],
        ["verify", "certify", "--seed", "0"],
    ]
    for argv in steps:
        print(f"\n$ twolayer-opt {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(demo(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(demo(Path(tmp)))
