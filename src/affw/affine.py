"""Affine weights, admissible levels, and the label sets behind the S-matrices.

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
from typing import Iterator, Optional

from .liealg import Root, RootSystem, Weight

__all__ = [
    "AffineWeight",
    "AdmissibleLevel",
    "PrincipalLabel",
    "SubregularLabel",
    "make_admissible_level",
    "affine_translation",
    "enumerate_P_plus_k",
    "enumerate_regular",
    "enumerate_subregular_eta",
    "principal_labels",
    "subregular_labels",
    "alpha_star",
]


class AffineDataError(ValueError):
    """Inconsistent affine weight data or invalid admissibility parameters."""


@dataclass(frozen=True)
class AffineWeight:
    """``finite_part + level*Lambda_0 + delta_coeff*delta``."""

    finite_part: Weight
    level: Fraction
    delta_coeff: Fraction

    @staticmethod
    def of(finite: Weight, level=0, delta=0) -> "AffineWeight":
        return AffineWeight(finite, Fraction(level), Fraction(delta))

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            self.finite_part + other.finite_part,
            self.level + other.level,
            self.delta_coeff + other.delta_coeff,
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            self.finite_part - other.finite_part,
            self.level - other.level,
            self.delta_coeff - other.delta_coeff,
        )


def lambda0(rs: RootSystem) -> AffineWeight:
    return AffineWeight(rs.zero_weight(), Fraction(1), Fraction(0))


def affine_weyl_vector(rs: RootSystem) -> AffineWeight:
    """rho_hat = h_check * Lambda_0 + rho."""
    return AffineWeight(rs.weyl_vector, Fraction(rs.dual_coxeter), Fraction(0))


def affine_translation(rs: RootSystem, alpha: Weight, lam: AffineWeight) -> AffineWeight:
    """t_alpha(lam) = lam + lam(K) alpha - [(alpha,lam) + |alpha|^2/2 lam(K)] delta.

    alpha must lie in the coroot lattice Q_check.
    """
    if not _in_coroot_lattice(rs, alpha):
        raise AffineDataError("translation vector is not in the coroot lattice")
    k = lam.level
    pairing = rs.bilinear(alpha, lam.finite_part)
    half_norm = rs.bilinear(alpha, alpha) / 2
    return AffineWeight(
        lam.finite_part + k * alpha,
        k,
        lam.delta_coeff - (pairing + half_norm * k),
    )


def _in_coroot_lattice(rs: RootSystem, alpha: Weight) -> bool:
    # alpha in Q_check iff its coefficients over the simple coroots are
    # integers; nu(alpha_i_check) has fundamental coordinates row_i(A)/d_i.
    n = rs.rank
    coords = rs.weight_to_root(alpha)  # coefficients over the alpha_i
    coeffs = [coords[i] * rs.simple_root_norms_half[i] for i in range(n)]
    # alpha = sum_i c_i alpha_i = sum_i (c_i d_i) alpha_i_check
    return all(c.denominator == 1 for c in coeffs)


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


def _dominant_by_level(rs: RootSystem, bound: int) -> Iterator[tuple[int, ...]]:
    """Dominant integral weights with <lam, theta_check> <= bound, lex order."""
    n = rs.rank
    comarks = rs.comarks

    def rec(prefix: list[int], used: int, i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(prefix)
            return
        top = (bound - used) // comarks[i]
        for c in range(top + 1):
            prefix.append(c)
            yield from rec(prefix, used + c * comarks[i], i + 1)
            prefix.pop()

    yield from rec([], 0, 0)


def enumerate_P_plus_k(rs: RootSystem, k: int) -> list[Weight]:
    """All dominant integral weights of level at most k, vacuum first."""
    if k < 0:
        raise AffineDataError("level bound must be non-negative")
    return [Weight.of(*c) for c in _dominant_by_level(rs, k)]


def enumerate_regular(rs: RootSystem, m: int) -> list[Weight]:
    """Strictly dominant weights of level < m (the set P_+^{m,reg}).

    Empty when m < h_check since rho itself has level h_check - 1.
    """
    if m < rs.dual_coxeter:
        return []
    rho = rs.weyl_vector
    return [rho + lam for lam in enumerate_P_plus_k(rs, m - rs.dual_coxeter)]


def enumerate_subregular_eta(rs: RootSystem, q: int) -> list[tuple[Weight, int]]:
    """Dominant weights of level <= q pinned to exactly one alcove wall.

    The wall quantities are <eta, alpha_i_check> for i = 1..l together with
    q - <eta, theta_check>; wall_id 0 names the affine wall, i names the wall
    of alpha_i (1-based).
    """
    out: list[tuple[Weight, int]] = []
    for coords in _dominant_by_level(rs, q):
        level = sum(c * m for c, m in zip(coords, rs.comarks))
        zero_walls = [i + 1 for i, c in enumerate(coords) if c == 0]
        if level == q:
            zero_walls.append(0)
        if len(zero_walls) == 1:
            out.append((Weight.of(*coords), zero_walls[0]))
    return out


# -- label sets ---------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalLabel:
    nu: Weight
    eta: Weight
    canonical: bool = True


@dataclass(frozen=True)
class SubregularLabel:
    nu: Weight
    eta: Weight
    wall_id: int


def _class_key(rs: RootSystem, p: int, q: int, nu: Weight, eta: Weight) -> tuple:
    """Canonical form of the module class of the pair (nu, eta).

    The shifted highest weights of one class share the finite Weyl orbit of
    nu - (p/q) eta, so the dominant representative of q*nu - p*eta is a
    complete class invariant.
    """
    v = Weight(tuple(q * a - p * b for a, b in zip(nu.coords, eta.coords)))
    dom, _ = rs.to_dominant(v)
    return tuple(dom.coords)


def _sort_key(w: Weight) -> tuple:
    return tuple(w.coords)


def principal_labels(lv: AdmissibleLevel) -> list[PrincipalLabel]:
    """Classes of pairs (nu, eta) in P_+^{p,reg} x P_+^{q,reg}.

    The representative of each class is the lexicographically least pair; the
    vacuum class (the one containing (rho, rho)) is listed first, the rest in
    lexicographic order of representatives.
    """
    rs = lv.root_system
    nus = enumerate_regular(rs, lv.p)
    etas = enumerate_regular(rs, lv.q)
    classes: dict[tuple, list[tuple[Weight, Weight]]] = {}
    for nu in nus:
        for eta in etas:
            classes.setdefault(_class_key(rs, lv.p, lv.q, nu, eta), []).append((nu, eta))
    vacuum_key = _class_key(rs, lv.p, lv.q, rs.weyl_vector, rs.weyl_vector)
    labels = []
    for key, pairs in classes.items():
        nu, eta = min(pairs, key=lambda t: (_sort_key(t[1]), _sort_key(t[0])))
        labels.append((key == vacuum_key, _sort_key(eta), _sort_key(nu), PrincipalLabel(nu, eta)))
    labels.sort(key=lambda t: (not t[0], t[1], t[2]))
    return [t[3] for t in labels]


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


def subregular_labels(lv: AdmissibleLevel, alpha_st: Optional[Root] = None) -> list[SubregularLabel]:
    """Classes of pairs (nu, eta) with eta on exactly one level-q wall.

    Same class invariant as :func:`principal_labels`.  Within a class the
    representative is chosen on the alpha_*-wall when the class touches it
    (these are the representatives for which the degenerate S-matrix kernel
    is well behaved), lexicographic otherwise.  The class of
    (rho, rho - varpi_*) is the vacuum and comes first; the rest follow in
    class-key order.
    """
    rs = lv.root_system
    t = rs.cartan_type
    if t.family not in "ADE":
        raise AffineDataError("subregular labels need a simply laced algebra")
    if alpha_st is None:
        alpha_st = alpha_star(rs)
    star_wall = alpha_st.root_coords.index(1) + 1
    nus = enumerate_regular(rs, lv.p)
    etas = enumerate_subregular_eta(rs, lv.q)
    classes: dict[tuple, list[tuple[Weight, Weight, int]]] = {}
    for nu in nus:
        for eta, wall in etas:
            key = _class_key(rs, lv.p, lv.q, nu, eta)
            classes.setdefault(key, []).append((nu, eta, wall))
    rho = rs.weyl_vector
    eta_vac = rho - rs.fundamental_weight(star_wall - 1)
    vacuum_key = None
    if all(c >= 0 for c in eta_vac.coords) and rs.level(eta_vac) <= lv.q:
        vacuum_key = _class_key(rs, lv.p, lv.q, rho, eta_vac)
    labels = []
    for key in sorted(classes):
        members = classes[key]
        on_star = [m for m in members if m[2] == star_wall]
        nu, eta, wall = min(
            on_star or members, key=lambda tr: (_sort_key(tr[1]), _sort_key(tr[0]))
        )
        labels.append((key != vacuum_key, key, SubregularLabel(nu, eta, wall)))
    labels.sort(key=lambda tr: (tr[0], tr[1]))
    return [tr[2] for tr in labels]
