"""Baseline sweep: time single public tannakit calls at the ROADMAP sizes.

Usage (from the repository root):

    python3 bench/baseline.py

Times, from outside the package:

* ``endvee_coalgebra`` on the cyclic regular representation over Q,
  n = 6, 8, 10;
* ``endvee_bialgebra`` on the Z/n character category over F_p,
  n = 10, 12 and 16;
* ``natvee`` on cyclic Z/20 over Q and over F_101.

Documents come from the benchmark's generators (seed 1).  Before a case
runs, the largest dense matrix it builds is predicted from n; a case above
``CAP_ENTRIES`` entries is refused instead of run, because the dense
bialgebra law check at Z/16 (a 16^4 x 16^4 matrix) exhausts memory.
Results are printed and written to ``bench/out/baseline.json``.
"""

import json
import os
import random
import sys
import time

import gen
from worker import import_tannakit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# ~1.6 GB of list slots: Z/10 characters (10^8 entries) fits, Z/12 does not.
CAP_ENTRIES = 2 * 10 ** 8

# (call, family, field, n, largest dense matrix in entries as a function of n)
CASES = [
    ("endvee_coalgebra", "cyclic", "Q", 6, lambda n: n ** 6),
    ("endvee_coalgebra", "cyclic", "Q", 8, lambda n: n ** 6),
    ("endvee_coalgebra", "cyclic", "Q", 10, lambda n: n ** 6),
    # BialgebraData.checks builds id⊗ψ⊗id densely: n^4 x n^4
    ("endvee_bialgebra", "characters", "Fp", 10, lambda n: n ** 8),
    ("endvee_bialgebra", "characters", "Fp", 12, lambda n: n ** 8),
    ("endvee_bialgebra", "characters", "Fp", 16, lambda n: n ** 8),
    # relation vectors: n^2 of length n^2
    ("natvee", "cyclic", "Q", 20, lambda n: n ** 4),
    ("natvee", "cyclic", "F101", 20, lambda n: n ** 4),
]


def timed_case(tk, call, family, field, n):
    rng = random.Random("baseline:%s:%d" % (family, n))
    if family == "cyclic":
        doc = gen.cyclic_document(rng, n, None if field == "Q" else 101)
    else:
        doc = gen.character_document(rng, n, gen.hopf_primes(n)[0])
    d = tk.load_document(doc)
    if call == "natvee":
        start = time.perf_counter()
        tk.natvee(d.category, d.functor, d.functor)
        return time.perf_counter() - start
    P = tk.natvee(d.category, d.functor, d.functor)
    start = time.perf_counter()
    if call == "endvee_coalgebra":
        tk.endvee_coalgebra(P)
    else:
        tk.endvee_bialgebra(d.category, d.functor, d.tensor, P)
    return time.perf_counter() - start


def main():
    import_tannakit(ROOT)
    import tannakit as tk
    rows = []
    for call, family, field, n, largest in CASES:
        entries = largest(n)
        row = {"call": call, "family": family, "field": field, "n": n,
               "largest_entries": entries}
        if entries > CAP_ENTRIES:
            row["refused"] = "largest dense matrix %d entries exceeds the cap %d" % (
                entries, CAP_ENTRIES)
            print("%-17s %-10s %-4s n=%-3d refused: %s"
                  % (call, family, field, n, row["refused"]), flush=True)
        else:
            row["seconds"] = timed_case(tk, call, family, field, n)
            print("%-17s %-10s %-4s n=%-3d %8.3f s" % (call, family, field, n,
                                                      row["seconds"]), flush=True)
        rows.append(row)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "baseline.json"), "w") as fh:
        json.dump({"cap_entries": CAP_ENTRIES, "cases": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
