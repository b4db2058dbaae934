"""Run every verification suite and summarize; exit 0 only if all pass.

Run:  python scripts/verify_all.py [--activation NAME] [--seeds N]
"""

import sys

from twolayer_opt.cli import main
from twolayer_opt.verify import SUITES


def run_all(extra) -> int:
    failed = []
    for suite in SUITES:
        print(f"\n=== verify {suite} ===")
        if main(["verify", suite, *extra]) != 0:
            failed.append(suite)
    print("\nall suites passed" if not failed else f"\nFAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_all(sys.argv[1:]))
