"""Regenerate reference_hits.json: every divisibility hit with order <= 2*10^6.

A divisibility hit is an abelian group type whose order-sum is a multiple
of the group order.  The sweep workload compares each window's reported
hits against this list, so a hit the program drops is caught.  The list
is computed with refmath only, never with the ordersum package.

    python3 bench/make_reference.py      # about a minute
"""

import json
import os
import sys
from itertools import product
from math import prod

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refmath  # noqa: E402

LIMIT = 2_000_000
BLOCK = 100_000
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_hits.json")


def hits_in(start: int, stop: int) -> list[list]:
    found = []
    for n, pairs in zip(range(start, stop + 1),
                        refmath.factor_window(start, stop)):
        choices = [[(p, parts) for parts in refmath.partitions(e)]
                   for p, e in pairs]
        for combo in product(*choices):
            psi = prod(refmath.psi_pgroup(p, parts) for p, parts in combo)
            if psi % n == 0:
                found.append([n, refmath.format_spec(combo), str(psi // n)])
    return found


def main() -> None:
    hits = []
    for start in range(2, LIMIT + 1, BLOCK):
        hits.extend(hits_in(start, min(start + BLOCK - 1, LIMIT)))
    hits.sort()
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(f'{{"first_order": 2, "last_order": {LIMIT}, "hits": [\n')
        fh.write(",\n".join(json.dumps(h) for h in hits))
        fh.write("\n]}\n")
    print(f"{len(hits)} hits in [2, {LIMIT}] written to {OUT}")


if __name__ == "__main__":
    main()
