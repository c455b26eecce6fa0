"""Seeded input generators for the four workloads.

Every operation is one argv for ``ordersum.cli.main``.  Each generator is
an endless iterator driven by a ``random.Random`` built from the run's
seed, so one seed always yields the same requests.  Inputs are drawn in
cycles with a fixed composition (one draw per bucket or stratum, in a
shuffled order): two seeds then differ in which inputs they draw, not in
how much work of each kind a run contains, which keeps medians and tail
latencies comparable from seed to seed.  No usage log exists to weigh
request kinds by, so each bucket is drawn equally often; run.py prints
the share of time each kind takes.

Warm-up inputs are disjoint from timed ones, so the psi cache a timed
request hits was filled by timed requests only: formula and verify
warm-ups use only the primes in WARMUP_PRIMES, which timed requests never
draw, the relative warm-up does less walker work than any timed request,
and the sweep warm-up scans orders below SWEEP_FIRST.
"""

import os
import sys
from dataclasses import dataclass, field
from math import gcd, log10, prod

import refmath

WARMUP_PRIMES = (101, 103, 107, 109, 113)

SWEEP_FIRST = 1_000_000
SWEEP_LAST = 2_000_000
# Window starts are drawn from three narrow bands in the bottom, middle and
# top of [SWEEP_FIRST, SWEEP_LAST].  Every resume rebuilds the sieve over
# [0, stop], so a window's cost depends on where it sits; narrow bands keep
# that cost the same from seed to seed while the top band still shows it.
# Every window of a band covers one divisibility hit (orders 1107795,
# 1550913 and 1854699 in reference_hits.json), so the hit checks and the
# "hit found" exit code are exercised on every run.
SWEEP_BANDS = (1_060_000, 1_505_000, 1_810_000)
SWEEP_JITTER = 20_000
SWEEP_WINDOW = 50_000
SWEEP_SEGMENTS = 10

ENUM_CAP = 1 << 20
COLD_CALLS = 20


@dataclass
class Op:
    """One CLI call: the argv, plus what the checker needs to know about it."""

    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)


class Primes:
    """Prime pools for drawing group specs; WARMUP_PRIMES are held back.

    Large primes are found on demand by trial division, so drawing inputs
    keeps no sieve in the timed process's memory.
    """

    def __init__(self) -> None:
        self._divisors = refmath.primes_up_to(1000)
        self.small = [p for p in self._divisors if p not in WARMUP_PRIMES]

    def log_uniform(self, u: float, lo: int, hi: int) -> int:
        """The least prime >= lo * (hi / lo) ** u, for u in [0, 1); lo > 1000."""
        n = int(lo * (hi / lo) ** u)
        while any(n % d == 0 for d in self._divisors if d * d <= n):
            n += 1
        return n


def deck(rng, values):
    """Endless draws from values, each pass through them in a fresh shuffle."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def even_uniform(rng, m: int = 8):
    """Endless draws from [0, 1): each pass of m draws holds one in each
    slice of width 1/m, so the draws of a run cover [0, 1) evenly.

    Each draw is still uniform; a run of a few dozen draws then holds about
    the same spread of request sizes whatever the seed, which keeps the
    latency percentiles of two seeds comparable.
    """
    for i in deck(rng, range(m)):
        yield (i + rng.random()) / m


def even_int(u: float, lo: int, hi: int) -> int:
    """The integer in [lo, hi] that a draw u in [0, 1) falls on."""
    return lo + int(u * (hi - lo + 1))


def log_strata(rng, lo: float, hi: float, k: int):
    """Endless lists of k log-uniform draws, one in each of k equal log-width
    slices of [lo, hi]; where a draw falls inside its slice comes from the
    slice's own even_uniform stream."""
    within = [even_uniform(rng) for _ in range(k)]
    while True:
        yield [lo * (hi / lo) ** ((i + next(u)) / k) for i, u in enumerate(within)]


def _random_parts(rng, top: int, k: int) -> tuple[int, ...]:
    """k ascending parts whose largest is exactly `top`."""
    return tuple(sorted([rng.randint(1, top) for _ in range(k - 1)] + [top]))


def _components_of(parts_by_prime: dict) -> list[tuple[int, tuple[int, ...]]]:
    return [(p, tuple(sorted(parts_by_prime[p])))
            for p in sorted(parts_by_prime)]


# sweep: the paper's search job, run across restarts.

def sweep_ops(rng, workdir: str):
    """Cycles of three windows of SWEEP_WINDOW orders, one per band.

    Each window is covered twice: once as a single checkpointed pass, then
    as SWEEP_SEGMENTS segments where all but the first continue the
    checkpoint with --resume.  The two checkpoint files must end up
    byte-identical.  The three windows' calls are interleaved (segment j of
    each window in turn, the single passes a third of a cycle apart), so
    any stretch of a run holds about the same mix of bands and call sizes.
    """
    w = 0
    while True:
        windows = []
        for band in SWEEP_BANDS:
            start = rng.randint(band, band + SWEEP_JITTER)
            windows.append(list(window_ops(f"w{w}", start, SWEEP_WINDOW,
                                           SWEEP_SEGMENTS, workdir)))
            w += 1
        for j in range(SWEEP_SEGMENTS):
            for i, (single, *_) in enumerate(windows):
                if j == i * SWEEP_SEGMENTS // len(windows):
                    yield single
            for _, *segments in windows:
                yield segments[j]


def window_ops(tag: str, start: int, length: int, segments: int, workdir: str):
    stop = start + length - 1
    one = os.path.join(workdir, f"{tag}_one.json")
    seg = os.path.join(workdir, f"{tag}_seg.json")
    yield Op("sweep", ["sweep", "divisibility", "--from", str(start),
                       "--to", str(stop), "--workers", "1",
                       "--checkpoint", one, "--json"],
             {"window": start, "from": start, "to": stop, "path": one})
    step = length // segments
    for j in range(segments):
        a = start + j * step
        b = stop if j == segments - 1 else a + step - 1
        argv = ["sweep", "divisibility", "--from", str(a), "--to", str(b),
                "--workers", "1", "--checkpoint", seg, "--json"]
        if j:
            argv.append("--resume")
        info = {"window": start, "from": a, "to": b, "path": seg,
                "segment": True}
        if j == segments - 1:
            info["same_as"] = one
        yield Op("sweep", argv, info)


def sweep_warmup(workdir: str) -> list[Op]:
    return list(window_ops("warm", 600_000, 3000, 3, workdir))


def sweep_cold(rng) -> list[Op]:
    out = []
    for _ in range(COLD_CALLS):
        a = rng.randint(2, 20_000)
        out.append(Op("sweep", ["sweep", "divisibility", "--from", str(a),
                                "--to", str(a + 199), "--json"],
                      {"window": a, "from": a, "to": a + 199}))
    return out


# formula: single-value questions asked interactively.

# Largest part of the leading component of a compute request, whose prime
# lies in [10^3, 10^6].
COMPUTE_DEPTHS = ((1, 3), (4, 12), (13, 40), (41, 130), (131, 420), (421, 700))
LIST_TYPES = ((20, 80), (81, 300), (301, 1200))
POLY_FAMILIES = ("cyclic", "elementary", "near_elementary", "rank2", "rank3",
                 "general")
MONO_SIZES = ((10, 15), (16, 21), (22, 26), (27, 30))
# Primes are drawn from hundreds of candidates, so a timed request seldom
# repeats a (p, parts) pair: the psi cache stays cold, as in a fresh CLI
# process, and psi_core.psi_repeat_share reports how often it does not.


# An order-sum of more decimal digits than the interpreter converts to
# text (sys.get_int_max_str_digits(), 4300 by default) makes cli.main
# raise ValueError from str().  Every timed request must succeed, so
# timed compute specs are redrawn until their order-sum stays below the
# limit: psi(G) <= |G|^2, so log10 |G| <= MAX_ORDER_LOG10 is enough.  The
# limit is left as it is, and each formula run still sends one request
# above it, outside the timed phase (KNOWN_DEFECT), and reports it.
MAX_ORDER_LOG10 = (sys.get_int_max_str_digits() - 1) / 2
KNOWN_DEFECT = [(1000003, (10, 200, 500))]


def order_log10(components) -> float:
    return sum(sum(parts) * log10(p) for p, parts in components)


def compute_components(rng, primes: Primes, depth: tuple[int, int],
                       lead_u, depth_u):
    """A multi-prime spec whose order-sum the CLI can print: one deep
    leading component plus shallow ones.  The leading prime and the depth
    of its component are drawn from the even_uniform streams lead_u and
    depth_u."""
    while True:
        comps = _compute_draw(rng, primes, depth, next(lead_u), next(depth_u))
        if order_log10(comps) <= MAX_ORDER_LOG10:
            return comps


def _compute_draw(rng, primes: Primes, depth: tuple[int, int],
                  lead_at: float, depth_at: float):
    lead = primes.log_uniform(lead_at, 1_000, 1_000_000)
    count = rng.randint(1, 4)
    chosen = {lead}
    while len(chosen) < count:
        if rng.random() < 0.5:
            chosen.add(rng.choice(primes.small))
        else:
            chosen.add(primes.log_uniform(rng.random(), 1_000, 1_000_000))
    comps = []
    for p in sorted(chosen):
        if p == lead:
            parts = _random_parts(rng, even_int(depth_at, *depth), rng.randint(1, 3))
        else:
            parts = _random_parts(rng, rng.randint(1, 8), rng.randint(1, 3))
        comps.append((p, parts))
    return comps


def compute_op(components, verify: bool = False) -> Op:
    argv = ["compute", refmath.format_spec(components), "--json"]
    if verify:
        argv.insert(2, "--verify")
    return Op("compute", argv, {"components": components, "verify": verify})


def list_order(rng, primes: Primes, types: tuple[int, int]) -> int:
    """An order above ENUM_CAP with a type count in the given range.

    Every row of a list is checked like a compute request; above ENUM_CAP
    that means the formula routes only, so a list costs its checker about
    as much as the CLI.  Small groups meet the brute-force oracle in verify.
    """
    while True:
        k = rng.randint(2, 4)
        exps = {p: rng.randint(1, 12) for p in rng.sample(primes.small, k)}
        count = prod(refmath.partition_count(e) for e in exps.values())
        n = prod(p ** e for p, e in exps.items())
        if types[0] <= count <= types[1] and n > ENUM_CAP:
            return n


def list_op(n: int) -> Op:
    return Op("list", ["list", str(n), "--json"], {"order": n})


def poly_shape(rng, family: str, u: float) -> tuple[int, ...]:
    """A shape of the family; u in [0, 1) sets its size."""
    if family == "cyclic":
        return (even_int(u, 1, 300),)
    if family == "elementary":
        return (1,) * even_int(u, 2, 40)
    if family == "near_elementary":
        return (1,) * even_int(u, 1, 39) + (2,)
    if family == "rank2":
        return _random_parts(rng, even_int(u, 1, 250), 2)
    if family == "rank3":
        return _random_parts(rng, even_int(u, 1, 150), 3)
    return _random_parts(rng, even_int(u, 2, 60), rng.randint(4, 6))


def poly_op(shape: tuple[int, ...]) -> Op:
    text = "[" + ",".join(map(str, shape)) + "]"
    return Op("poly", ["poly", text, "--json"], {"shape": shape})


def mono_op(n: int, p: int) -> Op:
    return Op("mono", ["sweep", "monotonicity", "--n", str(n), "--p", str(p),
                       "--json"], {"n": n, "p": p})


def formula_ops(rng, primes: Primes):
    """Cycles of one request per bucket: 6 compute, 3 list, 6 poly and 4
    monotonicity requests.  The draws that set a request's size come from
    one even_uniform stream per bucket."""
    # A monotonicity request's cost grows about 1.3-fold with each step of
    # n, so n is dealt from a shuffled deck per bucket: a run of a few
    # dozen cycles then holds each n about equally often, whatever the seed.
    mono_n = [deck(rng, range(lo, hi + 1)) for lo, hi in MONO_SIZES]
    mono_p = [even_uniform(rng) for _ in MONO_SIZES]
    lead_u = [even_uniform(rng) for _ in COMPUTE_DEPTHS]
    depth_u = [even_uniform(rng) for _ in COMPUTE_DEPTHS]
    size_u = [even_uniform(rng) for _ in POLY_FAMILIES]
    small = primes.small
    while True:
        cycle = [compute_op(compute_components(rng, primes, d, *u))
                 for d, *u in zip(COMPUTE_DEPTHS, lead_u, depth_u)]
        cycle += [list_op(list_order(rng, primes, t)) for t in LIST_TYPES]
        cycle += [poly_op(poly_shape(rng, f, next(u)))
                  for f, u in zip(POLY_FAMILIES, size_u)]
        cycle += [mono_op(next(n), small[int(next(p) * len(small))])
                  for n, p in zip(mono_n, mono_p)]
        rng.shuffle(cycle)
        yield from cycle


def formula_warmup() -> list[Op]:
    a, b, c, d, e = WARMUP_PRIMES
    return [compute_op([(a, (1, 5)), (b, (2, 40))]),
            compute_op([(c, (3,)), (d, (1, 1, 2))]),
            list_op(a ** 3 * b ** 2),
            poly_op((1, 2, 3)), poly_op((1, 1, 2)), poly_op((1, 2, 3, 4, 5)),
            mono_op(6, e)]


def formula_cold(rng, primes: Primes) -> list[Op]:
    ops = []
    lead_u, depth_u = even_uniform(rng), even_uniform(rng)
    for i in range(COLD_CALLS):
        if i % 3 == 0:
            ops.append(compute_op(compute_components(rng, primes, (1, 6),
                                                     lead_u, depth_u)))
        elif i % 3 == 1:
            ops.append(poly_op(poly_shape(rng, "rank2", rng.random())))
        else:
            ops.append(list_op(list_order(rng, primes, (20, 80))))
    return ops


# verify and relative: cross-checks against the brute-force oracle.

# compute --verify: a cycle draws one target order t in each of
# VERIFY_STRATA equal log-width slices of VERIFY_TARGETS and a random group
# with t <= |G| <= 2t, so group sizes spread smoothly over 10^3..2^20.
VERIFY_TARGETS = (1_000, ENUM_CAP // 2)
VERIFY_STRATA = 8
VERIFY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# relative: stratified the same way by the walker's work, the additions it
# performs (psi_rel - |G|) times (k + RELATIVE_OVERHEAD) for k cyclic
# factors: fitted on 135 requests, an addition costs about as much fixed
# time as the componentwise work on six factors, and this estimate follows
# a request's time to within a log-sd of 0.18 (0.40 with k alone).  A
# request's work lies in [w, RELATIVE_WIDTH * w).  The latency percentiles
# of a run of about a hundred requests follow the stratified targets only
# as closely as each request's time follows its target.
RELATIVE_TARGETS = (90_000, 2_250_000)
RELATIVE_OVERHEAD = 6
RELATIVE_WIDTH = 1.5
RELATIVE_STRATA = 7


def random_group(rng, lo: int, hi: int, pool=VERIFY_PRIMES):
    """Components of a random abelian group with lo <= order <= hi."""
    while True:
        by_prime: dict[int, list[int]] = {}
        order = 1
        while order < lo:
            p = rng.choice(pool)
            a = rng.randint(1, 3)
            if order * p ** a > hi:
                break
            by_prime.setdefault(p, []).append(a)
            order *= p ** a
        if lo <= order <= hi:
            return _components_of(by_prime)


def relative_op(rng):
    """A relative request whose subgroup is generated by single-component
    multiples of m/d, so that G/H is the product of the cyclic groups
    Z_{m/d} (and the untouched factors): psi_rel = |H| * psi(G/H)."""
    comps = random_group(rng, 200, 3000)
    powers = [(p, a) for p, parts in comps for a in parts]
    moduli = [p ** a for p, a in powers]
    picked = rng.sample(range(len(moduli)), rng.randint(1, min(2, len(moduli))))
    gens, quotient, sub_order = [], list(moduli), 1
    for i in picked:
        m = moduli[i]
        p, a = powers[i]
        d = rng.choice([p ** j for j in range(1, a + 1)])
        k = rng.randrange(1, d)
        while gcd(k, d) != 1:
            k = rng.randrange(1, d)
        g = [0] * len(moduli)
        g[i] = (m // d) * k % m
        gens.append(g)
        quotient[i] = m // d
        sub_order *= d
    quotient = [q for q in quotient if q > 1]
    psi_quot = refmath.psi_type(_prime_power_type(quotient))
    work = (sub_order * psi_quot - prod(moduli)) * (len(moduli) + RELATIVE_OVERHEAD)
    argv = ["relative", refmath.format_spec(comps)]
    for g in gens:
        argv += ["--gen", ",".join(map(str, g))]
    argv.append("--json")
    return work, Op("relative", argv, {
        "components": comps, "moduli": moduli, "gens": gens,
        "subgroup_order": sub_order, "quotient_moduli": quotient})


def _prime_power_type(moduli) -> list:
    """(prime, parts) type of a product of cyclic groups of prime-power order."""
    by_prime: dict[int, list[int]] = {}
    for m in moduli:
        (p, a), = refmath.factor_small(m)
        by_prime.setdefault(p, []).append(a)
    return _components_of(by_prime)


def relative_in(rng, work: tuple[int, int]) -> Op:
    while True:
        cost, op = relative_op(rng)
        if work[0] <= cost < work[1]:
            return op


def verify_ops(rng):
    """Cycles of VERIFY_STRATA compute --verify requests, one per stratum."""
    for targets in log_strata(rng, *VERIFY_TARGETS, VERIFY_STRATA):
        cycle = [compute_op(random_group(rng, int(t), int(2 * t)), verify=True)
                 for t in targets]
        rng.shuffle(cycle)
        yield from cycle


def verify_warmup(rng) -> list[Op]:
    return [compute_op(random_group(rng, 1_000, 200_000, WARMUP_PRIMES),
                       verify=True) for _ in range(3)]


def verify_cold(rng) -> list[Op]:
    return [compute_op(random_group(rng, 100, 2_000), verify=True)
            for _ in range(COLD_CALLS)]


def relative_ops(rng):
    """Cycles of RELATIVE_STRATA relative requests, one per stratum."""
    for targets in log_strata(rng, *RELATIVE_TARGETS, RELATIVE_STRATA):
        cycle = [relative_in(rng, (int(w), int(RELATIVE_WIDTH * w)))
                 for w in targets]
        rng.shuffle(cycle)
        yield from cycle


def relative_warmup(rng) -> list[Op]:
    return [relative_in(rng, (1_000, 10_000)) for _ in range(2)]


def relative_cold(rng) -> list[Op]:
    return [relative_in(rng, (1_000, 10_000)) for _ in range(COLD_CALLS)]


WORKLOADS = ("sweep", "formula", "verify", "relative")


def build(workload: str, rng, workdir: str):
    """(warm-up ops, endless timed op iterator) for one workload."""
    if workload == "sweep":
        return sweep_warmup(workdir), sweep_ops(rng, workdir)
    if workload == "formula":
        return formula_warmup(), formula_ops(rng, Primes())
    if workload == "verify":
        return verify_warmup(rng), verify_ops(rng)
    if workload == "relative":
        return relative_warmup(rng), relative_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def cold_ops(workload: str, rng) -> list[Op]:
    """Small requests of the workload's own kind, run in fresh processes."""
    if workload == "sweep":
        return sweep_cold(rng)
    if workload == "formula":
        return formula_cold(rng, Primes())
    if workload == "verify":
        return verify_cold(rng)
    return relative_cold(rng)
