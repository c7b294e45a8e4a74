"""One operation from a fresh interpreter, for the set-up time.

    python3 perfbench/first_result.py cli <gmlife flags...>
    python3 perfbench/first_result.py annuity <alpha> <beta> <gamma> <delta> <x>

Imports numpy, then gmlife (which imports numpy anyway, so the split shows
each one's share), runs the one operation and prints one JSON line with the
import times and the raw output for the caller to check.  gmlife must be
importable (the caller puts the checkout's ``src`` on PYTHONPATH).
"""

import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import gmlife  # noqa: E402
import gmlife.cli  # noqa: E402

gmlife_done = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> dict:
    if argv[0] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = gmlife.cli.main(argv[1:])
        return {"code": code, "out": out.getvalue()}
    alpha, beta, gam, delta, x = map(float, argv[1:])
    return {"value": gmlife.annuity(gmlife.GmParams(alpha, beta, gam), delta, x)}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    result.update(numpy_s=numpy_done - start, gmlife_s=gmlife_done - numpy_done)
    print(json.dumps(result), flush=True)
