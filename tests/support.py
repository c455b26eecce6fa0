"""Shared helpers for the test suite.

Everything here is deliberately independent of the library's algorithms:
a recursive partition generator and counter, the literal piecewise variant
of the f-function, order computation by repeated addition, and a compact
integer-encoded group driver for the subgroup-heavy tests.  These are the
oracles the library is judged against, so none of them may share code with
the implementation under test.
"""

import os
import subprocess
import sys
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod


def reference_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as ascending tuples, by naive recursion.

    Generates descending-first recursively, then sorts by the padded
    descending embedding, mirroring the enumeration contract without using
    the successor algorithm.
    """
    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    def padded(desc: tuple[int, ...]) -> tuple[int, ...]:
        return desc + (0,) * (n - len(desc))

    descending = sorted(gen(n, n), key=padded)
    return [tuple(reversed(d)) for d in descending]


@lru_cache(maxsize=None)
def reference_partition_count(n: int, cap: int | None = None) -> int:
    """p(n) by the classic recursion on (n, largest allowed part)."""
    if cap is None:
        cap = n
    if n == 0:
        return 1
    if cap == 0:
        return 0
    total = 0
    for first in range(1, cap + 1):
        if first > n:
            break
        total += reference_partition_count(n - first, first)
    return total


def f_piecewise(parts: tuple[int, ...], p: int, alpha: int) -> int:
    """The f-function by its literal piecewise branches.

    With ascending parts a_1 <= ... <= a_k, on the band a_i <= alpha <=
    a_{i+1} the value is p^((k-i-1)*alpha + a_1 + ... + a_i), and it is
    constant at p^(a_1 + ... + a_{k-1}) once alpha reaches a_{k-1}.
    Adjacent branches agree at the shared boundary, so choosing i as the
    number of passed parts among the first k-1 is well defined.
    """
    k = len(parts)
    i = sum(1 for a in parts[: k - 1] if a <= alpha)
    return p ** ((k - 1 - i) * alpha + sum(parts[:i]))


def order_by_repeated_addition(moduli, element) -> int:
    """Element order found by literally adding the element to itself."""
    identity = (0,) * len(moduli)
    current = tuple(element)
    m = 1
    while current != identity:
        current = tuple((x + y) % mod
                        for x, y, mod in zip(current, element, moduli))
        m += 1
    return m


def psi_by_definition(moduli) -> int:
    """Order-sum by the raw definition, using repeated addition only."""
    return sum(order_by_repeated_addition(moduli, e)
               for e in product(*(range(m) for m in moduli)))


def type_of_factors(factors):
    """Group type for a list of (p, exponent) cyclic factors, any order."""
    from ordersum.partitions import Partition
    from ordersum.psi_core import AbelianGroupType, PGroupType

    by_prime: dict[int, list[int]] = {}
    for p, a in factors:
        by_prime.setdefault(p, []).append(a)
    return AbelianGroupType(tuple(
        PGroupType(p, Partition(tuple(sorted(parts))))
        for p, parts in sorted(by_prime.items())))


class GroupTable:
    """A finite abelian group Z_m1 x ... x Z_mr with integer-encoded
    elements and a precomputed addition table.

    Elements are ids 0..n-1 (id 0 is the identity); `elements[i]` is the
    residue tuple of id i.  Built only for small n: the table is n^2 ints.
    """

    def __init__(self, moduli) -> None:
        self.moduli = tuple(moduli)
        self.elements = list(product(*(range(m) for m in self.moduli)))
        self.n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.index = index
        self.add = []
        for a in self.elements:
            row = [
                index[tuple((x + y) % m
                            for x, y, m in zip(a, b, self.moduli))]
                for b in self.elements
            ]
            self.add.append(row)
        self.orders = [
            lcm(*(m // gcd(m, r) for m, r in zip(self.moduli, e)))
            for e in self.elements
        ]

    def cyclic_subgroup(self, a: int) -> frozenset:
        ids = [0]
        cur = self.add[0][a]
        while cur != 0:
            ids.append(cur)
            cur = self.add[cur][a]
        return frozenset(ids)

    def two_generated_subgroups(self):
        """Every distinct subgroup generated by at most 2 elements.

        Yields (subgroup_ids_frozenset, (gen_a, gen_b)) with gen_b None
        for single-generator subgroups.  In an abelian group the subgroup
        generated by {a, b} is the elementwise sum of the two cyclic
        subgroups, so no breadth-first closure is needed.
        """
        cyc = [self.cyclic_subgroup(a) for a in range(self.n)]
        seen: dict[frozenset, tuple] = {}
        for a in range(self.n):
            if cyc[a] not in seen:
                seen[cyc[a]] = (a, None)
        pair_keys = set()
        for a in range(1, self.n):
            for b in range(a + 1, self.n):
                key = frozenset((cyc[a], cyc[b]))
                if key in pair_keys:
                    continue
                pair_keys.add(key)
                sub = frozenset(self.add[x][y] for x in cyc[a] for y in cyc[b])
                if sub not in seen:
                    seen[sub] = (a, b)
        return list(seen.items())

    def relative_order_table(self, subgroup: frozenset) -> list[int]:
        """o_H for every element id, by honest linear scans.

        For each element a the scan walks a, 2a, 3a, ... until the
        multiple lands in the subgroup, exactly mirroring the library's
        definition-level loop (no divisor shortcuts, which would assume
        the property under test).
        """
        member = bytearray(self.n)
        for s in subgroup:
            member[s] = 1
        table = [0] * self.n
        for a in range(self.n):
            cur = a
            m = 1
            while not member[cur]:
                cur = self.add[cur][a]
                m += 1
            table[a] = m
        return table


def run_python(code: str, *flags: str):
    """Run `code` in a fresh interpreter that imports this checkout's ordersum."""
    import ordersum

    src = os.path.dirname(os.path.dirname(os.path.abspath(ordersum.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def forge_psi(monkeypatch, p: int, parts: tuple[int, ...], value: int) -> None:
    """Make the library's psi of the p-group of shape `parts` read `value`.

    Every per-prime value goes through psi_core._psi_prime_power, so the
    forged value reaches every sweep, and forked workers inherit it.
    """
    from ordersum import psi_core

    real = psi_core._psi_prime_power
    monkeypatch.setattr(psi_core, "_psi_prime_power",
                        lambda q, s: value if (q, s) == (p, parts) else real(q, s))
