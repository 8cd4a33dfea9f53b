"""Run `fraccauchy solve` on every problem file with every solution route.

Prints one JSON line per run: the problem, the method, the exit code, the
last line of the error message (exit 3 for a numeric error, 2 for an input
error, 1 for a crash, whose traceback goes to standard error) and the
sha256 of the result CSV.  Exits 1 if any run ends with a code other than
0 (solved) or 3 (a typed numeric error), so the sweep catches crashes and
input errors but not the routes that refuse a problem by design.

    PYTHONPATH=src python scripts/cli_sweep.py [--problems DIR]

Two checkouts give the same CSV hashes exactly when their results are
byte-identical.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

from fraccauchy import cli
from fraccauchy.solver import ROUTES


def run(problem: Path, method: str, out: Path) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(
                ["solve", "--problem", str(problem), "--method", method, "--out", str(out)]
            )
        except Exception:  # a crash, not a typed error: exit code 1
            code = 1
            traceback.print_exc()
    if code == 1:
        print(err.getvalue(), file=sys.stderr)
    record = {"problem": problem.name, "method": method, "exit": code}
    lines = err.getvalue().strip().splitlines()
    record["message"] = lines[-1] if code and lines else None
    record["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else None
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("--problems", type=Path, default=root / "problems")
    args = parser.parse_args()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for problem in sorted(args.problems.glob("*.json")):
            for method in ROUTES:
                out = Path(tmp) / f"{problem.stem}__{method}.csv"
                record = run(problem, method, out)
                print(json.dumps(record), flush=True)
                bad += record["exit"] not in (0, 3)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
