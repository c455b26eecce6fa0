#!/usr/bin/env python3
"""A guided tour of the order-sum of a finite abelian group.

1. The two groups of order 4 and the one group of order 3, by hand
2. The same values from the closed formula and from the brute-force oracle
3. A bigger showpiece: order 3887, where the order-sum is an exact
   multiple of the group order
4. Every abelian type of order 72, formula vs oracle count
"""

import sys

from ordersum import (
    component_moduli,
    format_group_spec,
    group_type_of_order,
    parse_group_spec,
    psi_abelian,
    psi_bruteforce,
)

failures = 0


def check(label: str, ok: bool) -> None:
    global failures
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        failures += 1


print("Order-sums by hand for the smallest interesting groups:")
print("  Z_2 x Z_2: identity contributes 1, the three involutions 2 each")
print("             1 + 2 + 2 + 2 = 7")
print("  Z_3:       identity 1, the two generators 3 each: 1 + 3 + 3 = 7")
print()

klein = parse_group_spec("2^[1,1]")
z3 = parse_group_spec("3")
check("formula gives 7 for 2^[1,1]", psi_abelian(klein) == 7)
check("formula gives 7 for 3", psi_abelian(z3) == 7)
check("oracle count agrees for 2^[1,1]", psi_bruteforce((2, 2)) == 7)
check("oracle count agrees for 3", psi_bruteforce((3,)) == 7)
print()

print("The smallest abelian group whose order divides its order-sum:")
group = parse_group_spec("13^[1,1]*23")
value = psi_abelian(group)
print(f"  group {format_group_spec(group)}, order {group.order}")
print(f"  order-sum {value} = {group.order} * {value // group.order}")
check("order is 3887", group.order == 3887)
check("order-sum is 1107795", value == 1107795)
check("order-sum is an exact multiple of the order", value % group.order == 0)
check("oracle count of the 3887 elements by order agrees",
      psi_bruteforce(component_moduli(group)) == value)
print()

print("All abelian types of order 72, formula vs oracle count:")
for g in group_type_of_order(72):
    spec = format_group_spec(g)
    value = psi_abelian(g)
    brute = psi_bruteforce(component_moduli(g))
    check(f"{spec:<16} order-sum {value}", value == brute)

print()
if failures:
    print(f"{failures} check(s) FAILED")
    sys.exit(1)
print("all checks passed")
