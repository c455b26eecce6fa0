#!/usr/bin/env python3
"""How rarely a group order divides its own order-sum.

1. Scan all abelian types of order up to 100000
2. Confirm there is no hit below 3887, and show every hit in range
3. Observe that every hit order found here is an odd multiple of 3887
   (an observation about this range, not a proven pattern)
4. Confirm the structural facts the scan checks en route: every
   order-sum is odd, and never below 2*order - 1, and orders 1..3 give
   exactly 1, 3 and 7, which together rule out the value 5 forever.
   image_probe raises SoundnessError at the first value that breaks one,
   so a report means all held throughout.
"""

import sys
from time import perf_counter

from ordersum import SoundnessError, divisibility_search, image_probe

failures = 0


def check(label: str, ok: bool) -> None:
    global failures
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        failures += 1


LIMIT = 100000

print(f"Scanning every abelian type of every order up to {LIMIT}...")
t0 = perf_counter()
hits = divisibility_search(LIMIT)
print(f"done in {perf_counter() - t0:.2f}s")
print()

print("Orders whose order-sum they divide:")
for hit in hits:
    print(f"  order {hit.order:>6}  {hit.group:<16} "
          f"order-sum {hit.psi} = {hit.order} * {hit.quotient}")
print()

check("no hit below 3887", all(h.order >= 3887 for h in hits))
check("the order-3887 hit is present and first",
      bool(hits) and hits[0].order == 3887)
check("every hit order in range is odd", all(h.order % 2 for h in hits))
check("every hit order in range is a multiple of 3887",
      all(h.order % 3887 == 0 for h in hits))
print()
print("  (both oddness and the 3887 pattern are empirical for this range;")
print("   oddness of the hits is forced, since order-sums are always odd,")
print("   but nothing here proves hits must be multiples of 3887)")
print()

print("Structural facts checked on the same range:")
FACTS = "every order-sum is odd and at least 2*order - 1"
try:
    report = image_probe(LIMIT)
except SoundnessError as exc:
    check(f"{FACTS} ({exc})", False)
else:
    check(FACTS, True)
    check("the value 5 is never attained, conclusively", report.conclusive)
    print()
    print(f"  {report.explanation}")

print()
if failures:
    print(f"{failures} check(s) FAILED")
    sys.exit(1)
print("all checks passed")
