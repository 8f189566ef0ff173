"""Independent references the benchmark checks each job against.

Everything here is written from closed forms or brute force and uses no
affw code, except the :class:`affw.fusion.FusionTable` container that
``fusion_ring_isomorphic`` expects.  Series are plain dicts mapping an integer
exponent (in units of ``1/den`` of q) to an integer coefficient.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

# -- group orders and label counts ---------------------------------------------

_EXCEPTIONAL_WEYL = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}


def weyl_order(cartan: str) -> int:
    """|W| from the classical closed forms."""
    if cartan in _EXCEPTIONAL_WEYL:
        return _EXCEPTIONAL_WEYL[cartan]
    family, n = cartan[0], int(cartan[1:])
    if family == "A":
        return math.factorial(n + 1)
    if family in "BC":
        return 2**n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    raise ValueError(f"no Weyl order for {cartan}")


def exponents(cartan: str) -> list[int]:
    """Exponents m_i; the principal W-algebra has generators of weight m_i + 1."""
    table = {"E6": [1, 4, 5, 7, 8, 11], "E7": [1, 5, 7, 9, 11, 13, 17],
             "E8": [1, 7, 11, 13, 17, 19, 23, 29]}
    if cartan in table:
        return table[cartan]
    if cartan[0] == "A":
        return list(range(1, int(cartan[1:]) + 1))
    raise ValueError(f"no exponents for {cartan}")


def kp_label_count_A(rank: int, k: int) -> int:
    """|P_+^k| for sl_{rank+1}: dominant weights of level <= k."""
    return math.comb(k + rank, rank)


def principal_label_count_A(rank: int, p: int, q: int) -> int:
    """FKW principal labels for sl2 and sl3: regular pairs modulo the centre."""
    if rank == 1:
        return (p - 1) * (q - 1) // 2
    if rank == 2:
        return math.comb(p - 1, 2) * math.comb(q - 1, 2) // 3
    raise ValueError("closed form known here for A1 and A2 only")


# -- fusion references -----------------------------------------------------------


def sl2_fusion(k: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Truncated Clebsch-Gordan rule at level k on 2*spin labels (broadcasts)."""
    return (
        (np.abs(a - b) <= c)
        & (c <= np.minimum(a + b, 2 * k - a - b))
        & ((a + b + c) % 2 == 0)
    ).astype(np.int64)


def su_quantum_dimension(k: int, weight) -> float:
    """Quantum dimension of the sl_{r+1} level-k weight (Dynkin labels)."""
    lam = [float(x) for x in weight]
    r = len(lam)
    n = k + r + 1
    d = 1.0
    for i in range(r):
        for j in range(i + 1, r + 1):
            m_lam = sum(lam[i:j]) + (j - i)
            d *= math.sin(math.pi * m_lam / n) / math.sin(math.pi * (j - i) / n)
    return d


def virasoro_S(p: int, q: int) -> tuple[list, np.ndarray]:
    """Minimal model Vir(p, q) S-matrix on Kac labels (r, s) ~ (p-r, q-s)."""
    labels, seen = [], set()
    for r in range(1, p):
        for s in range(1, q):
            if (p - r, q - s) not in seen:
                seen.add((r, s))
                labels.append((r, s))
    rr = np.array([l[0] for l in labels])
    ss = np.array([l[1] for l in labels])
    sign = (-1.0) ** (1 + np.outer(rr, ss) + np.outer(ss, rr))
    s = (
        2
        * math.sqrt(2 / (p * q))
        * sign
        * np.sin(np.pi * q * np.outer(rr, rr) / p)
        * np.sin(np.pi * p * np.outer(ss, ss) / q)
    )
    return labels, s


def virasoro_fusion_table(p: int, q: int):
    """Verlinde table of Vir(p, q), vacuum (1, 1) at index 0."""
    from affw.fusion import FusionTable

    labels, s = virasoro_S(p, q)
    raw = np.einsum("aj,bj,cj,j->abc", s, s, s, 1.0 / s[0], optimize=True)
    rounded = np.round(raw)
    residual = float(np.abs(raw - rounded).max())
    if residual > 1e-6 or rounded.min() < 0:
        raise ArithmeticError(f"Vir({p},{q}) oracle is not integral ({residual:.2e})")
    coeffs = rounded.astype(np.int64)
    return FusionTable(
        labels=labels,
        coefficients=coeffs,
        vacuum=0,
        quantum_dimensions=s[0] / s[0, 0],
        max_coefficient=int(coeffs.max()),
        rounding_residual=residual,
    )


# -- q-series references ---------------------------------------------------------


def _mul(a: dict, b: dict, top: int) -> dict:
    out: dict[int, int] = defaultdict(int)
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb <= top:
                out[ea + eb] += ca * cb
    return {e: c for e, c in out.items() if c}


def _geometric(parts: list[int], top: int, sign: int = 1) -> dict:
    """prod over parts e of 1/(1 - sign*q^e), exponents up to ``top``."""
    arr = [1] + [0] * top
    for e in parts:
        for i in range(e, top + 1):
            arr[i] += sign * arr[i - e]
    return {i: c for i, c in enumerate(arr) if c}


def tower_partitions(towers: list[int], order: int) -> list[int]:
    """Coefficients of prod_i prod_{n >= towers[i]} 1/(1 - q^n) up to q^order."""
    parts = [n for d in towers for n in range(d, order + 1)]
    g = _geometric(parts, order)
    return [g.get(i, 0) for i in range(order + 1)]


def lattice_vacuum_character(gram: list[list[int]], order: int) -> list[int]:
    """theta_Q(q) / eta(q)^rank without q^{-c/24}: level-1 simply laced vacuum."""
    rank = len(gram)
    g = np.array(gram)
    lam_min = float(np.linalg.eigvalsh(g).min())
    box = int(math.isqrt(int(2 * order / lam_min))) + 1
    theta: dict[int, int] = defaultdict(int)
    for v in itertools.product(range(-box, box + 1), repeat=rank):
        vv = np.array(v)
        half = int(vv @ g @ vv) // 2
        if half <= order:
            theta[half] += 1
    eta_inv = _geometric([n for n in range(1, order + 1) for _ in range(rank)], order)
    prod = _mul(dict(theta), eta_inv, order)
    return [prod.get(i, 0) for i in range(order + 1)]


def so5_level1_vacuum(order: int) -> list[int]:
    """L_1(so5) = even part of five free fermions: 1/2[prod(1+q^{n-1/2})^5 + prod(1-q^{n-1/2})^5]."""
    top = 2 * order
    plus, minus = {0: 1}, {0: 1}
    for e in range(1, top + 1, 2):
        for _ in range(5):
            plus = _mul(plus, {0: 1, e: 1}, top)
            minus = _mul(minus, {0: 1, e: -1}, top)
    return [(plus.get(2 * i, 0) + minus.get(2 * i, 0)) // 2 for i in range(order + 1)]


def betagamma_even_vacuum(order: int) -> list[int]:
    """L_{-1/2}(sl2) vacuum = even part of one beta-gamma pair, in steps of q^{1/2}."""
    top = 2 * order
    parts = [e for e in range(1, top + 1, 2) for _ in range(2)]
    plus = _geometric(parts, top, 1)
    minus = _geometric(parts, top, -1)
    return [(plus.get(i, 0) + minus.get(i, 0)) // 2 for i in range(top + 1)]


def brst_two_variable(order: int) -> dict:
    """(1 - y q) / prod_{n>=1} (1 - q^n) as {(y, q): coefficient}."""
    inv = tower_partitions([1], order)
    out = {}
    for n, c in enumerate(inv):
        if c:
            out[(0, n)] = c
        if n + 1 <= order and c:
            out[(1, n + 1)] = -c
    return out


def a2_verma_multiplicities(order: int, depth: int) -> dict:
    """Affine sl3 Verma character at highest weight 0, by Kostant partitions.

    Returns {(Dynkin labels of mu, q-degree): multiplicity} for q-degree
    <= order and height(-mu) <= depth, counting every way to write (-mu, n)
    as a sum of positive affine roots (imaginary roots with multiplicity 2).
    """
    cartan = ((2, -1), (-1, 2))
    finite = [(1, 0), (0, 1), (1, 1)]
    coins = [(a, 0) for a in finite]
    for n in range(1, order + 1):
        coins += [(a, n) for a in finite]
        coins += [((-a[0], -a[1]), n) for a in finite]
        coins += [((0, 0), n)] * 2
    # a partial sum differs from a retained total by parts of height >= -2
    # with q-degree >= 1, of which there are at most ``order``
    reach = depth + 2 * order
    states: dict[tuple, int] = {((0, 0), 0): 1}
    for beta, n in coins:
        out = dict(states)
        frontier = states
        while frontier:
            nxt = {}
            for (b, m), c in frontier.items():
                nb = (b[0] + beta[0], b[1] + beta[1])
                if m + n <= order and nb[0] + nb[1] <= reach:
                    nxt[(nb, m + n)] = nxt.get((nb, m + n), 0) + c
            for key, c in nxt.items():
                out[key] = out.get(key, 0) + c
            frontier = nxt
        states = out
    result = {}
    for (b, m), c in states.items():
        if b[0] + b[1] <= depth and c:
            mu = tuple(-(b[0] * cartan[0][j] + b[1] * cartan[1][j]) for j in range(2))
            result[(mu, m)] = c
    return result


def a2_theta_bruteforce(tau: complex, radius: int = 12) -> complex:
    """sum over the A2 root lattice of e^{pi i tau (v, v)}, x = 0."""
    r = np.arange(-radius, radius + 1)
    a, b = np.meshgrid(r, r)
    norm = 2 * a * a - 2 * a * b + 2 * b * b
    return complex(np.exp(1j * np.pi * tau * norm).sum())
