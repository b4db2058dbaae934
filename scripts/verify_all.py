"""Run every verification suite and summarize; exit 0 only if all pass.

Run:  python scripts/verify_all.py [--activation NAME] [--seeds N]

--seeds goes only to the suites that read it (cli.SUITE_FLAGS).
"""

import argparse
import sys

from twolayer_opt.cli import SUITE_FLAGS, main
from twolayer_opt.verify import SUITES


def run_all(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--activation")
    parser.add_argument("--seeds")
    args = parser.parse_args(argv)
    failed = []
    for suite in SUITES:
        extra = [] if args.activation is None else ["--activation", args.activation]
        if args.seeds is not None and "--seeds" in SUITE_FLAGS[suite]:
            extra += ["--seeds", args.seeds]
        print(f"\n=== verify {suite} ===")
        if main(["verify", suite, *extra]) != 0:
            failed.append(suite)
    print("\nall suites passed" if not failed else f"\nFAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_all(sys.argv[1:]))
