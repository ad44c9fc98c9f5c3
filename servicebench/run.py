"""Entry point: ``python3 servicebench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]``, run from the root of a checkout.

The program under test is imported from ``src/`` of that checkout; without
it the benchmark exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"servicebench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        sys.exit(2)
    from servicebench.bench import main

    sys.exit(main())
