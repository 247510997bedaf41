#!/usr/bin/env python3
"""Check every session within a bound against the reference model and
the paper's tightness, order, pretraining and amortization relations.

Runs the enumeration of `tests/test_small_scope.py`, whose docstring defines
the bound, through `run_session` and the reference model of
`tests/reference.py`, and checks its `Relations` on each session. Tier-1
runs bound 2; a larger bound runs far more sessions, and one above 6 is
refused. Prints the number of sessions and the wall time. At the first
mismatch or broken relation it prints the session's configuration and
exits 1.

    python3 scripts/small_scope.py [--bound K]      # K from 1 to 6, default 3
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: the largest bound accepted: bound 4 alone runs about 1.5 million
#: sessions, and a bound of a few dozen lists more traces than memory holds
MAX_BOUND = 6
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

from test_small_scope import Relations, cases, check  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bound", type=int, default=3,
                        help=f"the bound K, from 1 to {MAX_BOUND}")
    args = parser.parse_args()
    if args.bound < 1:
        parser.error("--bound must be at least 1")
    if args.bound > MAX_BOUND:
        parser.error(f"--bound must be at most {MAX_BOUND}")
    started = time.perf_counter()
    count = 0
    relations = Relations()
    for count, case in enumerate(cases(args.bound), 1):
        try:
            check(case)
            relations.check(case)
        except AssertionError as exc:
            print(f"mismatch in session {count}: {exc}", file=sys.stderr)
            return 1
    print(f"bound {args.bound}: {count} sessions match the reference model and keep "
          f"the relations in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
