"""Cold-process scalar solver phase: ``python -m solver_child DRAWS LO HI OUT``.

Solves draws [LO, HI) of the saved draw file with ``solve_stationary``,
saves every root to OUT (.npy) and prints the in-process solve time.
"""
import json
import sys
import time

import numpy as np

from sweep import FIELDS, scalar_phase


def main(argv: list[str]) -> int:
    path, lo, hi, out = argv
    with np.load(path) as data:
        draws = {k: data[k] for k in FIELDS}
    t0 = time.perf_counter()
    roots = scalar_phase(draws, int(lo), int(hi))
    solve_s = time.perf_counter() - t0
    np.save(out, roots)
    print(json.dumps({"solve_s": solve_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
