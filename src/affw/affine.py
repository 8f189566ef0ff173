"""Admissible levels and the label sets behind the S-matrices.

Label sets come in two flavours.  Principal labels are pairs (nu, eta) of
strictly dominant (alcove-regular) weights at levels p and q.  Subregular
labels pair a regular nu with an eta sitting on exactly one wall of the
level-q affine Weyl chamber.  In both cases distinct pairs can parametrise
the same module class: the classes correspond to finite-Weyl-group orbits of
the vector q*nu - p*eta, and we canonicalise by reflecting that vector into
the dominant chamber.  For sl2 this reduces to the familiar minimal-model
identification (r, s) ~ (p - r, q - s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .liealg import Root, RootSystem, Weight

__all__ = [
    "AdmissibleLevel",
    "PrincipalLabel",
    "SubregularLabel",
    "make_admissible_level",
    "enumerate_P_plus_k",
    "principal_labels",
    "subregular_labels",
    "alpha_star",
]


class AffineDataError(ValueError):
    """Invalid admissibility parameters or label-set requests."""


@dataclass(frozen=True)
class AdmissibleLevel:
    """k = -h_check + p/q with gcd(p, q) = 1 and p >= h_check."""

    root_system: RootSystem
    p: int
    q: int

    @property
    def k(self) -> Fraction:
        return Fraction(self.p, self.q) - self.root_system.dual_coxeter


def make_admissible_level(rs: RootSystem, p: int, q: int) -> AdmissibleLevel:
    if p < 1 or q < 1:
        raise AffineDataError("p and q must be positive integers")
    if gcd(p, q) != 1:
        raise AffineDataError(f"gcd({p},{q}) != 1: level is not admissible")
    if p < rs.dual_coxeter:
        raise AffineDataError(
            f"p = {p} < h_check = {rs.dual_coxeter} for {rs.cartan_type}"
        )
    return AdmissibleLevel(rs, p, q)


# -- dominant-chamber enumerations -------------------------------------------


def _dominant_by_level(
    rs: RootSystem,
    bound: int,
    lower: Optional[Sequence[int]] = None,
    upper: Optional[Sequence[int]] = None,
) -> list[tuple[int, ...]]:
    """Integral weights with ``lower[i] <= lam_i <= upper[i]`` and
    <lam, theta_check> <= bound, in lex order.

    ``lower`` defaults to 0 (the dominant chamber), ``upper`` to no bound but
    the level.  Built one coordinate at a time: each prefix, with the level
    it uses, is extended by every value still within the bound, ascending.
    """
    n = rs.rank
    lower = lower or (0,) * n
    upper = upper or (bound,) * n
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for lo, hi, m in zip(lower, upper, rs.comarks):
        rows = [
            (prefix + (c,), used + c * m)
            for prefix, used in rows
            for c in range(lo, min(hi, (bound - used) // m) + 1)
        ]
    return [prefix for prefix, _ in rows]


def _regular(rs: RootSystem, m: int) -> list[tuple[int, ...]]:
    """Coordinates of the strictly dominant weights of level < m (the set
    P_+^{m,reg}), lex order; empty when m < h_check, as rho has level h_check - 1."""
    return _dominant_by_level(rs, m - 1, lower=(1,) * rs.rank)


def _subregular_eta(rs: RootSystem, q: int) -> list[tuple[tuple[int, ...], int]]:
    """Dominant weights of level <= q pinned to exactly one alcove wall.

    The wall quantities are <eta, alpha_i_check> for i = 1..l together with
    q - <eta, theta_check>; wall id 0 names the affine wall, i names the wall
    of alpha_i (1-based).  Pairs (coordinates, wall id) in lex order.

    One bounded enumeration per wall: eta_i = 0 and every other coordinate
    at least 1 below level q for the wall of alpha_i; every coordinate at
    least 1 and level exactly q for the affine wall.
    """
    n = rs.rank
    out = [
        (c, 0)
        for c in _dominant_by_level(rs, q, lower=(1,) * n)
        if sum(x * m for x, m in zip(c, rs.comarks)) == q
    ]
    for i in range(n):
        lower = tuple(int(j != i) for j in range(n))
        upper = tuple(q * x for x in lower)
        out += [(c, i + 1) for c in _dominant_by_level(rs, q - 1, lower, upper)]
    out.sort()
    return out


def enumerate_P_plus_k(rs: RootSystem, k: int) -> list[Weight]:
    """All dominant integral weights of level at most k, vacuum first."""
    if k < 0:
        raise AffineDataError("level bound must be non-negative")
    return [Weight.of(*c) for c in _dominant_by_level(rs, k)]


# -- label sets ---------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalLabel:
    nu: Weight
    eta: Weight


@dataclass(frozen=True)
class SubregularLabel:
    nu: Weight
    eta: Weight
    wall_id: int


def _class_key(rs: RootSystem, p: int, q: int, nu: tuple, eta: tuple) -> tuple[int, ...]:
    """Canonical form of the module class of the integral pair (nu, eta).

    The shifted highest weights of one class share the finite Weyl orbit of
    nu - (p/q) eta, so the dominant representative of q*nu - p*eta is a
    complete class invariant.
    """
    return rs.dominant_word(tuple(q * a - p * b for a, b in zip(nu, eta)))[0]


def principal_labels(lv: AdmissibleLevel) -> list[PrincipalLabel]:
    """Classes of pairs (nu, eta) in P_+^{p,reg} x P_+^{q,reg}.

    The representative of each class is the lexicographically least pair; the
    vacuum class (the one containing (rho, rho)) is listed first, the rest in
    lexicographic order of representatives.
    """
    rs, p, q = lv.root_system, lv.p, lv.q
    etas = _regular(rs, q)
    if not etas:  # no pair at all, however many nu there are
        return []
    classes: dict[tuple, tuple] = {}
    for nu in _regular(rs, p):
        for eta in etas:
            key = _class_key(rs, p, q, nu, eta)
            # representative: least (eta, nu)
            if key not in classes or (eta, nu) < classes[key]:
                classes[key] = (eta, nu)
    rho = (1,) * rs.rank
    vacuum_key = _class_key(rs, p, q, rho, rho)
    reps = sorted((key != vacuum_key, eta, nu) for key, (eta, nu) in classes.items())
    return [PrincipalLabel(Weight.of(*nu), Weight.of(*eta)) for _, eta, nu in reps]


def alpha_star(rs: RootSystem) -> Root:
    """The distinguished simple root for the subregular pipeline.

    Trivalent node for D and E; middle node for A of odd rank.  Undefined for
    other types (and for A1, whose subregular orbit is zero).
    """
    t = rs.cartan_type
    n = t.rank
    if t.family == "A":
        if n == 1:
            raise AffineDataError("sl2 has no subregular nilpotent orbit")
        if n % 2 == 0:
            raise AffineDataError(
                "type A subregular pipeline needs odd rank (good even grading)"
            )
        return rs.simple_roots[(n - 1) // 2]
    if t.family in "DE":
        a = rs.cartan_matrix
        for i in range(n):
            if sum(1 for j in range(n) if j != i and a[i][j] != 0) == 3:
                return rs.simple_roots[i]
        raise AffineDataError(f"no trivalent node found for {t}")
    raise AffineDataError(f"subregular pipeline unsupported for type {t}")


def _star_wall(rs: RootSystem) -> int:
    """The 1-based node of :func:`alpha_star`."""
    return alpha_star(rs).root_coords.index(1) + 1


def subregular_labels(lv: AdmissibleLevel) -> list[SubregularLabel]:
    """Classes of pairs (nu, eta) with eta on exactly one level-q wall.

    Same class invariant as :func:`principal_labels`.  Within a class the
    representative is chosen on the alpha_*-wall when the class touches it
    (these are the representatives for which the degenerate S-matrix kernel
    is well behaved), lexicographic otherwise.  The class of
    (rho, rho - varpi_*) is the vacuum and comes first; the rest follow in
    class-key order.  alpha_* is :func:`alpha_star`, fixed by the Cartan type.
    """
    rs, p, q = lv.root_system, lv.p, lv.q
    t = rs.cartan_type
    if t.family not in "ADE":
        raise AffineDataError("subregular labels need a simply laced algebra")
    star_wall = _star_wall(rs)
    etas = _subregular_eta(rs, q)
    classes: dict[tuple, tuple] = {}
    for nu in _regular(rs, p):
        for eta, wall in etas:
            key = _class_key(rs, p, q, nu, eta)
            # representative: off the alpha_*-wall only if the class never
            # touches it, then least (eta, nu)
            rep = (wall != star_wall, eta, nu, wall)
            if key not in classes or rep < classes[key]:
                classes[key] = rep
    rho = (1,) * rs.rank
    eta_vac = tuple(int(j != star_wall - 1) for j in range(rs.rank))
    vacuum_key = None
    if sum(rs.comarks) - rs.comarks[star_wall - 1] <= q:
        vacuum_key = _class_key(rs, p, q, rho, eta_vac)
    return [
        SubregularLabel(Weight.of(*nu), Weight.of(*eta), wall)
        for _, _, (_, eta, nu, wall) in sorted(
            (key != vacuum_key, key, rep) for key, rep in classes.items()
        )
    ]
