#!/usr/bin/env python3
"""Order-sums grow strictly along the partition chain of a p-group.

1. List the five types of order 2^4 in enumeration order and show the
   order-sum climbing from the flat type to the cyclic type
2. Verify the chain endpoints against the two endpoint closed forms
3. Do the same silently for every n up to 16 and several primes
4. Show the order-sum as a polynomial in p for a fixed shape, and
   verify the matching closed forms by exact polynomial division
"""

import sys

from ordersum import (
    Partition,
    monotonicity_check,
    psi_chain,
    psi_cyclic,
    psi_elem_abelian,
    psi_symbolic,
    verify_closed_form,
)

failures = 0


def check(label: str, ok: bool) -> None:
    global failures
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        failures += 1


print("The five abelian types of order 2^4, in enumeration order:")
chain = list(psi_chain(2, 4))
for shape, value in chain:
    print(f"  shape {str(shape):<10} order-sum {value}")
check("strictly increasing along the chain",
      monotonicity_check(4, 2).strictly_increasing)
check("chain starts at the flat-type closed form",
      chain[0][1] == psi_elem_abelian(2, 4))
check("chain ends at the cyclic closed form",
      chain[-1][1] == psi_cyclic(2, 4))
print()

print("Same check for n up to 16 and p in {2, 3, 5, 7, 11, 13}:")
chains = 0
all_ok = True
for n in range(1, 17):
    for p in (2, 3, 5, 7, 11, 13):
        all_ok = all_ok and monotonicity_check(n, p).ok
        chains += 1
check(f"all {chains} chains strictly increasing with matching endpoints",
      all_ok)
print()

shape = Partition((1, 2))
poly = psi_symbolic(shape)
print(f"The order-sum of the shape {shape} group as a polynomial in p:")
print(f"  psi = {poly}")
for p in (2, 3, 5):
    print(f"  at p = {p}: {poly(p)}")
print()

print("Closed forms that apply to this shape, checked by exact division:")
closed = verify_closed_form(shape)
for c in closed.checks:
    check(f"{c.family}: {c.closed} (residual {c.residual})", c.matches)

print()
if failures:
    print(f"{failures} check(s) FAILED")
    sys.exit(1)
print("all checks passed")
