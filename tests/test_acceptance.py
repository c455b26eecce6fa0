"""Acceptance criteria, one test per criterion, in order.

Each test prints a single verdict line with its measured runtime and
asserts the stated budget.  Run with `pytest tests/test_acceptance.py -v -s`
to see the verdict lines on passing runs.
"""

from math import prod
from time import perf_counter

from ordersum.analysis import (
    DivisibleRecord,
    conjecture_sweep,
    divisibility_search,
    image_probe,
    load_checkpoint,
    monotonicity_check,
)
from ordersum.arith import factorize
from ordersum.oracle import (
    psi_bruteforce,
    psi_relative,
    relative_order,
    subgroup_closure,
)
from ordersum.partitions import Partition, partitions_of
from ordersum.polynomial import psi_symbolic, verify_closed_form
from ordersum.psi_core import (
    PGroupType,
    component_moduli,
    f_eval,
    group_type_of_order,
    parse_group_spec,
    psi_abelian,
    psi_chain,
    psi_cyclic,
    psi_elem_abelian,
    psi_near_elem,
    psi_p,
    psi_rank2,
    psi_rank3,
)
from support import GroupTable, reference_partition_count, type_of_factors

PRIMES = (2, 3, 5, 7, 11, 13)


def _report(num: int, elapsed: float, budget: float | None, detail: str):
    within = budget is None or elapsed < budget
    verdict = "PASS" if within else "FAIL (over budget)"
    budget_note = f", budget {budget:g}s" if budget is not None else ""
    print(f"criterion {num:02d}: {verdict} "
          f"({elapsed:.3f}s{budget_note}) {detail}")
    assert within, (
        f"criterion {num:02d} took {elapsed:.3f}s, budget {budget:g}s")


def test_criterion_01():
    klein = parse_group_spec("2^[1,1]")
    z3 = parse_group_spec("3")
    t0 = perf_counter()
    formula_klein = psi_abelian(klein)
    formula_z3 = psi_abelian(z3)
    oracle_klein = psi_bruteforce((2, 2))
    oracle_z3 = psi_bruteforce((3,))
    elapsed = perf_counter() - t0
    assert formula_klein == oracle_klein == 7
    assert formula_z3 == oracle_z3 == 7
    _report(1, elapsed, 0.001,
            "order-sum 7 for both order-4 flat and order-3 cyclic groups, "
            "formula and enumeration agree")


def test_criterion_02():
    group = parse_group_spec("13^[1,1]*23")
    t0 = perf_counter()
    value = psi_abelian(group)
    brute = psi_bruteforce(component_moduli(group))
    elapsed = perf_counter() - t0
    assert group.order == 3887
    assert value == brute == 1107795
    quotient, remainder = divmod(value, group.order)
    assert remainder == 0 and quotient == 285
    _report(2, elapsed, 1.0,
            "13^[1,1]*23: order-sum 1107795 = 3887 * 285, confirmed by "
            "full 3887-element enumeration")


def test_criterion_03():
    t0 = perf_counter()
    count = 0
    for n in range(1, 2049):
        for group in group_type_of_order(n):
            moduli = component_moduli(group)
            brute = psi_bruteforce(moduli) if moduli else 1
            assert brute == psi_abelian(group), (n, moduli)
            count += 1
    elapsed = perf_counter() - t0
    independent = sum(
        prod(reference_partition_count(e) for _, e in factorize(n))
        for n in range(1, 2049))
    assert count == independent
    assert count > 4400
    _report(3, elapsed, 120.0,
            f"formula equals enumeration for all {count} abelian types "
            "of order <= 2048")


def test_criterion_04():
    t0 = perf_counter()
    numeric = 0
    for p in PRIMES:
        for n in range(1, 7):
            assert psi_cyclic(p, n) == psi_p(PGroupType(p, Partition((n,))))
            assert psi_elem_abelian(p, n) == psi_p(
                PGroupType(p, Partition((1,) * n)))
            numeric += 2
        for n in range(2, 7):
            assert psi_near_elem(p, n) == psi_p(
                PGroupType(p, Partition((1,) * (n - 2) + (2,))))
            numeric += 1
        for a1 in range(1, 7):
            for a2 in range(a1, 7):
                assert psi_rank2(p, a1, a2) == psi_p(
                    PGroupType(p, Partition((a1, a2))))
                numeric += 1
                for a3 in range(a2, 7):
                    assert psi_rank3(p, a1, a2, a3) == psi_p(
                        PGroupType(p, Partition((a1, a2, a3))))
                    numeric += 1
    shapes = set()
    shapes.update((n,) for n in range(1, 7))
    shapes.update((1,) * k for k in range(1, 7))
    shapes.update((1,) * (k - 2) + (2,) for k in range(2, 7))
    shapes.update((a1, a2) for a1 in range(1, 7) for a2 in range(a1, 7))
    shapes.update((a1, a2, a3) for a1 in range(1, 7)
                  for a2 in range(a1, 7) for a3 in range(a2, 7))
    symbolic = 0
    for shape in sorted(shapes):
        report = verify_closed_form(Partition(shape))
        assert report.all_match, shape
        for check in report.checks:
            assert check.residual.degree is None, (shape, check.family)
            symbolic += 1
    elapsed = perf_counter() - t0
    _report(4, elapsed, 10.0,
            f"{numeric} numeric closed-form identities across p in "
            f"{PRIMES} and {symbolic} symbolic checks with zero residual")


def test_criterion_05():
    t0 = perf_counter()
    chains = 0
    for n in range(1, 21):
        for p in PRIMES:
            report = monotonicity_check(n, p)
            assert report.violations == (), (n, p)
            chain = list(psi_chain(p, n))
            assert report.types == len(chain)
            assert chain[0][1] == psi_elem_abelian(p, n)
            assert chain[-1][1] == psi_cyclic(p, n)
            assert report.ok
            chains += 1
    elapsed = perf_counter() - t0
    _report(5, elapsed, 60.0,
            f"{chains} chains (n <= 20, six primes) strictly increasing "
            "from the flat-type value to the cyclic value")


def test_criterion_06(tmp_path):
    single_path = str(tmp_path / "sweep_single.json")
    t0 = perf_counter()
    single = conjecture_sweep(2, 100000, checkpoint_path=single_path)
    elapsed_single = perf_counter() - t0
    assert single.collisions == []
    assert single.max_done == 100000

    t0 = perf_counter()
    parallel = conjecture_sweep(2, 100000, workers=8)
    elapsed_parallel = perf_counter() - t0
    assert parallel.collisions == []
    assert parallel.divisible_hits == single.divisible_hits

    split_path = str(tmp_path / "sweep_split.json")
    interrupted = conjecture_sweep(2, 50000, checkpoint_path=split_path)
    assert interrupted.max_done == 50000
    resumed = load_checkpoint(split_path)
    conjecture_sweep(2, 100000, resumed, checkpoint_path=split_path)
    with open(single_path, "rb") as fh:
        single_bytes = fh.read()
    with open(split_path, "rb") as fh:
        split_bytes = fh.read()
    assert single_bytes == split_bytes

    assert elapsed_single < 300.0, f"single-threaded took {elapsed_single:.1f}s"
    _report(6, elapsed_parallel, 60.0,
            "zero order-sum collisions among same-order types up to "
            f"100000 (single pass {elapsed_single:.3f}s < 300s, 8-worker "
            f"pass {elapsed_parallel:.3f}s); interrupted-and-resumed "
            "checkpoint is byte-identical to the uninterrupted one")


def test_criterion_07():
    t0 = perf_counter()
    below_2000 = divisibility_search(2000)
    up_to_3887 = divisibility_search(3887)
    elapsed = perf_counter() - t0
    assert below_2000 == []
    assert up_to_3887 == [DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285)]
    _report(7, elapsed, 30.0,
            "no order-sum divisible by its order up to 2000; exactly the "
            "order-3887 type up to 3887")


def test_criterion_08():
    t0 = perf_counter()
    report = image_probe(100000)
    elapsed = perf_counter() - t0
    assert report.values_up_to_3 == (1, 3, 7)
    assert report.conclusive
    print(f"criterion 08 verdict: {report.explanation}")
    _report(8, elapsed, None,
            f"all {report.types_scanned} order-sums up to order 100000 odd "
            "and >= 2*order-1; value 5 never attained, conclusively")


def test_criterion_09():
    t0 = perf_counter()
    shapes = 0
    for n in range(1, 13):
        for shape in partitions_of(n):
            for p in PRIMES:
                values = [f_eval(shape, p, alpha)
                          for alpha in range(0, n + 3)]
                assert all(a <= b for a, b in zip(values, values[1:])), \
                    (shape, p)
            poly = psi_symbolic(shape)
            parts = shape.parts
            assert poly.degree == 2 * parts[-1] + sum(parts[:-1]), shape
            assert poly.coeffs[-1] == 1, shape
            shapes += 1
    elapsed = perf_counter() - t0
    _report(9, elapsed, 5.0,
            f"f-values non-decreasing and order-sum polynomial monic of "
            f"degree 2*max+rest for all {shapes} shapes with n <= 12")


def test_criterion_10():
    t0 = perf_counter()
    subgroups_checked = 0
    per_element_checks = 0
    for n in range(1, 201):
        for group in group_type_of_order(n):
            moduli = component_moduli(group)
            if not moduli:
                continue
            table = GroupTable(moduli)
            for subgroup, _gens in table.two_generated_subgroups():
                rel = table.relative_order_table(subgroup)
                subgroups_checked += 1
                for a in range(table.n):
                    assert table.orders[a] % rel[a] == 0, (moduli, a)
                    per_element_checks += 1
                for h in subgroup:
                    row = table.add[h]
                    for a in range(table.n):
                        assert rel[row[a]] == rel[a], (moduli, a, h)

    # direct-factor subgroups: relative order-sum is the subgroup order
    # times the order-sum of the complementary factors
    factor_pairs = 0
    for n in range(2, 201):
        for group in group_type_of_order(n):
            factors = [(c.p, a) for c in group.components
                       for a in c.shape.parts]
            if len(factors) < 2:
                continue
            moduli = tuple(p ** a for p, a in factors)
            for mask in range(1, (1 << len(factors)) - 1):
                chosen = [i for i in range(len(factors)) if mask >> i & 1]
                gens = []
                for i in chosen:
                    unit = [0] * len(moduli)
                    unit[i] = 1
                    gens.append(tuple(unit))
                subgroup = subgroup_closure(moduli, gens)
                complement = [factors[i] for i in range(len(factors))
                              if i not in chosen]
                expected = len(subgroup) * psi_abelian(
                    type_of_factors(complement))
                assert psi_relative(moduli, subgroup) == expected, \
                    (moduli, chosen)
                factor_pairs += 1

    # tie the integer-encoded driver to the library primitives directly
    tied = 0
    for n in range(2, 61):
        for group in group_type_of_order(n):
            moduli = component_moduli(group)
            table = GroupTable(moduli)
            for subgroup, _gens in table.two_generated_subgroups():
                as_tuples = {table.elements[i] for i in subgroup}
                rel = table.relative_order_table(subgroup)
                for a in range(table.n):
                    assert rel[a] == relative_order(
                        moduli, as_tuples, table.elements[a])
                assert sum(rel) == psi_relative(moduli, as_tuples)
                tied += 1
    elapsed = perf_counter() - t0
    assert subgroups_checked > 10000
    _report(10, elapsed, 120.0,
            f"relative orders constant on cosets and dividing element "
            f"orders for {subgroups_checked} subgroups (orders <= 200, "
            f"{per_element_checks} divisibility checks); direct-factor "
            f"identity holds for {factor_pairs} factor subsets; driver "
            f"agrees with library primitives on {tied} subgroups")
