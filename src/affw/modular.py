"""The three modular S-matrix constructions.

* Kac-Peterson: integrable level-k labels, sum over the full Weyl group.
* Principal (FKW): pairs of alcove-regular weights at levels p and q; the
  raw entry is a product of two Weyl sums times a cross phase
  ``exp(2 pi i [(nu, eta') + (eta, nu')])``.  Without the cross phase the
  matrix is not unitary (rows of identified labels collapse).
* Subregular: the eta-side Weyl sum degenerates to a sum over the half group
  ``{y : y(alpha_*) > 0}`` weighted by ``<y(alpha_*), x> / <alpha_*, x>``.
  The kernel must be fed the conservative weights ``e_i = y_i(eta_i)`` where
  ``y_i`` throws the wall root of ``eta_i`` onto ``alpha_*`` (``theta`` onto
  ``-alpha_*`` for the affine wall); with those arguments the kernel is
  independent of the probe ``x`` and the assembled matrix is unitary.

Every Weyl sum is a sum over the cosets of a classical subgroup W' of a few
determinants of roots of unity (:func:`_weyl_sum`).  The exponents are exact
integers, reduced mod their period before they are looked up in a table of
roots of unity; the table and the eliminations run in numpy's longdouble (a
64-bit mantissa on x86) and the result is rounded to complex128 once.
Against the exact integer-bucket walk over all of W, every entry agrees to
1e-12 relative (absolute below modulus 1), which the tests check on every
group up to E6; measured, the difference is at most 3e-16.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import zipfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .affine import (
    AdmissibleLevel,
    SubregularLabel,
    _star_wall,
    alpha_star,
    enumerate_P_plus_k,
    principal_labels,
    subregular_labels,
)
from .liealg import RootSystem, Weight, _gauss_jordan, _int_numerators

__all__ = [
    "SMatrix",
    "SMatrixError",
    "kac_peterson",
    "fkw_principal",
    "degenerate_kernel",
    "subregular_S",
    "default_probe",
    "alternate_probe",
]

NORMALIZATION_TOL = 1e-8
CHECKPOINT_FORMAT = 5  # bump when the saved partial sums change layout


class SMatrixError(ValueError):
    """Normalisation failed: S~ S~+ is not proportional to the identity."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class SMatrix:
    labels: list
    entries: np.ndarray
    normalization: str
    provenance: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def unitarity_residual(self) -> float:
        s = self.entries
        return float(np.abs(s @ s.conj().T - np.eye(self.size)).max())

    def symmetry_residual(self) -> float:
        return float(np.abs(self.entries - self.entries.T).max())

    def phase_fixed(self, vacuum: int) -> "SMatrix":
        """Copy with the global phase chosen so S[v, v] is positive real."""
        svv = self.entries[vacuum, vacuum]
        if abs(svv) < 1e-14:
            raise SMatrixError("vacuum diagonal entry vanishes; cannot fix phase")
        phase = abs(svv) / svv
        return SMatrix(
            self.labels,
            self.entries * phase,
            self.normalization,
            {**self.provenance, "phase_fixed_at": vacuum},
        )


# -- exact exponent helpers ---------------------------------------------------


_PI = np.longdouble("3.14159265358979323846264338327950288")


@functools.lru_cache(maxsize=64)
def _phase_table(den: int) -> np.ndarray:
    """e^{-2 pi i k / den} for k = 0..den-1, in extended precision."""
    angle = 2 * _PI * np.arange(den, dtype=np.longdouble) / den
    return np.cos(angle) - 1j * np.sin(angle).astype(np.clongdouble)


def _int_coords(w: Weight) -> tuple[int, ...]:
    if not w.is_integral():
        raise SMatrixError("expected integral weight coordinates")
    return tuple(int(c) for c in w.coords)


def _weight_ints(ws: Sequence[Weight]) -> np.ndarray:
    return np.array([_int_coords(w) for w in ws], dtype=np.int64)


# -- Weyl sums as classical determinants -----------------------------------------

# The classical reflection subgroup W' whose cosets carry every Weyl sum of an
# exceptional type: the family of W', its simple roots as 1-based nodes in the
# Bourbaki order of W' (0 for -theta), and for a parabolic W' the node whose
# fundamental weight it fixes.  E8 takes the maximal-rank D8 of the extended
# diagram: 135 cosets against 2,160 for the parabolic D7.  Classical types
# take W' = W.
_SUBGROUPS = {
    "E6": ("D", (6, 5, 4, 3, 2), 1),
    "E7": ("D", (7, 6, 5, 4, 3, 2), 1),
    "E8": ("D", (0, 8, 7, 6, 5, 4, 3, 2), None),
    "F4": ("B", (1, 2, 3), 4),
    "G2": ("A", (1,), 2),
}
_BATCH_ENTRIES = 1 << 18  # matrix entries per batched elimination (bounds temporaries)


@dataclass(frozen=True)
class _Frame:
    """A frame (f_r) of W' and the coset representatives c of W/W', as integers.

    W' permutes the f_r (type A) or permutes them with signs (B, C, D), and
    ``sum_r (v, f_r)(v', f_r) = scale (v, v')`` on the span of its roots.  For
    integral x, ``x @ proj[c] = den ((x, c f_r))_r`` and
    ``x @ gram[c] @ y = den_gram (c x, y)``.
    """

    family: str
    proj: np.ndarray      # (cosets, n, m)
    den: int
    gram: np.ndarray      # (cosets, n, n)
    den_gram: int
    scale: Fraction
    parity: np.ndarray    # (cosets,) eps(c)
    size: int             # |W'|


def _frame_roots(family: str, m: int) -> list[list[Fraction]]:
    """The frame of W' as rows of coefficients on its simple roots beta_i.

    In an orthonormal basis (eps_r), beta_i = eps_i - eps_{i+1} for i < m,
    and beta_m = eps_m - eps_{m+1} (A_m), eps_m (B_m), 2 eps_m (C_m) or
    eps_{m-1} + eps_m (D_m); f_r is eps_r projected to the span of the roots,
    ``S^T (S S^T)^{-1}`` with S the rows of the beta_i.
    """
    width = m + 1 if family == "A" else m
    s = [[int(j == i) - int(j == i + 1) for j in range(width)] for i in range(m)]
    s[-1] = {"A": s[-1],
             "B": [int(j == m - 1) for j in range(m)],
             "C": [2 * int(j == m - 1) for j in range(m)],
             "D": [int(j >= m - 2) for j in range(m)]}[family]
    inv, _ = _gauss_jordan([[sum(a * b for a, b in zip(u, v)) for v in s] for u in s])
    return [[sum(s[k][r] * inv[k][i] for k in range(m)) for i in range(m)] for r in range(width)]


def _cosets(rs: RootSystem, key) -> tuple[np.ndarray, np.ndarray]:
    """Representatives c of W/W' and eps(c), by a breadth-first search that
    multiplies by simple reflections on the left.  ``key(c)`` is hashable and
    has stabiliser exactly W', so it names the coset of c."""
    a, eye = np.array(rs.cartan_matrix, dtype=np.int64), np.eye(rs.rank, dtype=np.int64)
    # s_i on fundamental-weight coordinates: lam_j -> lam_j - lam_i a_ij
    refl = [eye - np.outer(a[i], eye[i]) for i in range(rs.rank)]
    found = {key(eye): (eye, 1)}
    queue = deque(found.values())
    while queue:
        c, sign = queue.popleft()
        for s in refl:
            image = s @ c
            k = key(image)
            if k not in found:
                found[k] = (image, -sign)
                queue.append(found[k])
    mats, signs = zip(*found.values())
    return np.array(mats), np.array(signs)


_FRAMES: dict = {}


def _frame(rs: RootSystem) -> _Frame:
    """The frame and cosets of ``rs``, built once per Cartan type.

    The key of c is the frame ``{+-c f_r}`` with, for a parabolic W', c(varpi_k):
    W' is the stabiliser of both (the frame alone is also fixed by -1 in
    E7, F4 and G2).
    """
    t = rs.cartan_type
    if t in _FRAMES:
        return _FRAMES[t]
    n = rs.rank
    family, nodes, fixed = _SUBGROUPS.get(str(t), (t.family, tuple(range(1, n + 1)), None))
    simple = [[-c for c in rs.highest_root.root_coords] if node == 0 else
              [int(j == node - 1) for j in range(n)] for node in nodes]
    frame = [rs.root_to_weight([sum(c * b[j] for c, b in zip(coeffs, simple)) for j in range(n)]).coords
             for coeffs in _frame_roots(family, len(nodes))]
    fn, den_f = _int_numerators(np.array(frame, dtype=object).T)
    gn, den_g = _int_numerators(rs.gram)
    mats, parity = _cosets(rs, lambda c: (frozenset(max(tuple(v), tuple(-v)) for v in (c @ fn).T),
                                          fixed and tuple(c[:, fixed - 1])))
    proj = gn @ mats @ fn
    den = math.gcd(den_g * den_f, int(np.gcd.reduce(proj, axis=None)))
    proj, den = proj // den, den_g * den_f // den
    # scale = sum_r (beta, f_r)^2 / (beta, beta) for a root beta of W'
    beta = rs.root_to_weight(simple[0])
    coords = np.array([int(c) for c in beta.coords], dtype=np.int64) @ proj[0]
    scale = Fraction(int(coords @ coords), den * den) / rs.bilinear(beta, beta)
    _FRAMES[t] = _Frame(family, proj, den, mats.transpose(0, 2, 1) @ gn, den_g, scale,
                        parity, rs.weyl_order // len(mats))
    return _FRAMES[t]


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack ``(..., m, m)`` by elimination with partial pivoting.

    Every operation is linear in each single column, so scaling one column
    by a power of two scales the determinant exactly (``np.linalg.det`` goes
    through a logarithm), and a singular matrix gives 0 rather than an error.
    """
    shape, m = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, m, m).copy()
    rows = np.arange(len(a))
    det = np.ones(len(a), a.dtype)
    for k in range(m):
        col = a[:, k:, k]
        p = k + np.argmax(col.real * col.real + col.imag * col.imag, axis=1)
        top = a[rows, p].copy()
        a[rows, p] = a[:, k]
        a[:, k] = top
        piv = a[:, k, k]
        det = np.where(p == k, det, -det) * piv
        lower = a[:, k + 1 :, k] / np.where(piv == 0, 1, piv)[:, None]
        a[:, k + 1 :, k + 1 :] -= lower[:, :, None] * a[:, None, k, k + 1 :]
    return det.reshape(shape)


def _inner_sum(family: str, e: np.ndarray, dn: Optional[np.ndarray] = None) -> np.ndarray:
    """``sum_{u in W'} eps(u) e^{N(u)}`` from ``e = exp(N)`` (``(..., m, m)``,
    N imaginary) or, given the real t-derivative ``dn`` of N, its derivative.

    A_m: det e^N.  B_m, C_m: det(e^N - e^-N).  D_m: the half sum of
    det(e^N + e^-N) and det(e^N - e^-N).  As e^-N = conj(e^N), B, C and D
    reduce to real determinants of Re e and Im e.  The derivative of a
    determinant is the sum over r of the determinant with column r replaced
    by the derivative of that column; only the columns where ``dn`` is not
    zero contribute.
    """
    m = e.shape[-1]
    if family == "A":
        parts = [(1, e, 1, e)]
    elif family in "BC":
        parts = [((2j) ** m, e.imag, -1j * (2j) ** m, e.real)]
    else:
        parts = [(2 ** (m - 1), e.real, 1j * 2 ** (m - 1), e.imag),
                 ((2j) ** m / 2, e.imag, -1j * (2j) ** m / 2, e.real)]
    if dn is None:
        return sum(c * d for (c, _, _, _), d in zip(parts, _det(np.stack([x for _, x, _, _ in parts]))))
    cols = np.flatnonzero(dn.reshape(-1, m).any(axis=0))
    swap = (cols[:, None] == np.arange(m)).reshape((len(cols),) + (1,) * (e.ndim - 1) + (m,))
    dets = _det(np.stack([np.where(swap, dn * y, x) for _, x, _, y in parts]))
    return sum(c * d.sum(axis=0) for (_, _, c, _), d in zip(parts, dets))


def _frame_pairings(fr: _Frame, x: np.ndarray, y: np.ndarray, cs: range):
    """Integer numerators of ``(x, f_r)`` and ``(y, c f_s)``."""
    return x @ fr.proj[0], np.einsum("jn,cnm->cjm", y, fr.proj[cs.start:cs.stop])


def _weyl_sum(
    rs: RootSystem,
    left: np.ndarray,
    right: np.ndarray,
    coef: Fraction,
    probe: Optional[Sequence[int]] = None,
    cosets: Optional[range] = None,
) -> np.ndarray:
    """``A[i,j] = sum_w eps(w) exp(-2 pi i coef (w(left_i), right_j))``.

    W is the union of the cosets c W' of the classical W' of :func:`_frame`,
    so with ``kappa = -2 pi i coef``, a = left_i and b = right_j the sum is
    ``sum_c eps(c) e^{kappa (a_perp, (c^-1 b)_perp)} I_c``, where I_c is the
    :func:`_inner_sum` of ``N_rs = kappa (a, f_r)(b, c f_s) / scale`` and perp
    is the part orthogonal to the roots of W'.  Every exponent is an exact
    integer reduced mod its period before ``exp``.  ``cosets`` (a range,
    default all) restricts the sum; the terms are added in coset order.

    With a ``probe`` x the value is the half-group kernel ``sum_{y(alpha_*)>0}
    eps(y) <y(alpha_*), x> / <alpha_*, x> exp(...)``, computed as
    ``1/(2 <alpha_*, x>)`` times the t-derivative at 0 of the full sum with
    exponent ``+ t (w alpha_*, X)``.  That needs the phase unchanged under
    ``left_i -> s_alpha_*(left_i)``, i.e. ``coef <left_i, alpha_*>`` integral;
    other left weights are refused.
    """
    fr = _frame(rs)
    cs = range(len(fr.parity)) if cosets is None else cosets
    s = fr.scale
    jden = s.numerator * fr.den**2  # (1/scale) sum_r (x, f_r)(y, c f_r) = s.den sum xp yp / jden
    lden = math.lcm(fr.den_gram, jden)
    jper, lper = coef.denominator * jden, coef.denominator * lden
    jtab, ltab = _phase_table(jper), _phase_table(lper)
    k = coef.numerator * s.denominator % jper
    star = None
    if probe is not None:
        root = alpha_star(rs)
        w0 = int(np.dot(root.root_coords, probe))
        if w0 == 0:
            raise SMatrixError("probe x is orthogonal to alpha_*")
        node = root.root_coords.index(1)
        if np.any(coef.numerator * left[:, node] % coef.denominator):
            raise SMatrixError(f"the half-group kernel needs coef <eta, alpha_*> integral "
                               f"(coef = {coef}), not <eta, alpha_*> = {left[:, node].tolist()}")
        star = (_weight_ints([root.weight]), np.array([probe], dtype=np.int64))
    # without a probe, left = right gives A_ij = A_ji (w -> w^-1): pairs i <= j
    symmetric = probe is None and np.array_equal(left, right)
    if symmetric:
        rows, cols = np.triu_indices(len(left))
    else:
        rows, cols = np.indices((len(left), len(right))).reshape(2, -1)
    m = fr.proj.shape[2]
    step = max(1, _BATCH_ENTRIES // (len(rows) * m * m))
    total = np.zeros(len(rows), np.clongdouble)
    for lo in range(cs.start, cs.stop, step):
        batch = range(lo, min(cs.stop, lo + step))
        xp, yp = _frame_pairings(fr, left, right, batch)
        xp, yp = xp[rows], yp[:, cols]
        q = np.einsum("pn,cnk,pk->cp", left[rows], fr.gram[batch.start:batch.stop], right[cols])
        # N[c, pair, s, r]: the left weight on the columns, where the probe's
        # derivative replaces them
        n_int = (xp[None, :, None, :] % jper) * (yp[:, :, :, None] % jper) % jper * k % jper
        perp = (q % lper) * (lden // fr.den_gram) \
            - s.denominator * (lden // jden) * np.einsum("pr,cpr->cp", xp % lper, yp % lper)
        phase = fr.parity[batch.start:batch.stop, None] * ltab[perp % lper * coef.numerator % lper]
        if star is None:
            terms = phase * _inner_sum(fr.family, jtab[n_int])
        else:
            # alpha_* is a root of W' for every type that has an alpha_*, so
            # the t-part (w alpha_*, X) has no perp term
            ap, xpx = _frame_pairings(fr, *star, batch)
            dn = s.denominator * xpx[:, 0][:, :, None] * ap[0][None, None, :] / jden
            terms = phase * _inner_sum(fr.family, jtab[n_int], dn[:, None])
        for t in terms:
            total += t
    out = np.zeros((len(left), len(right)), complex)
    out[rows, cols] = total if star is None else total / (2 * w0)
    if symmetric:
        out[cols, rows] = out[rows, cols]
    return out


def _cross_phase(rs: RootSystem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One-sided phase ``P[i,j] = exp(2 pi i (a_i, b_j))``.

    Callers multiply ``_cross_phase(a, b) * _cross_phase(b, a)`` to get the
    symmetric cross phase ``exp(2 pi i [(a_i, b_j) + (b_i, a_j)])``.
    """
    mg, dg = _int_numerators(rs.gram)
    dots = (a @ mg @ b.T) % dg  # exponent (a_i, b_j) mod 1 times dg
    return np.exp(2j * np.pi * dots / dg)


def _normalize(raw: np.ndarray, labels, provenance) -> SMatrix:
    m = raw @ raw.conj().T
    diag = np.diag(m).real
    c = float(diag.mean())
    if c <= 0:
        raise SMatrixError("degenerate raw S-matrix", residual=float("inf"))
    off = np.abs(m - c * np.eye(len(labels))).max()
    if off > NORMALIZATION_TOL * c:
        raise SMatrixError(
            f"S~S~+ is not proportional to the identity (relative residual "
            f"{off / c:.3e}); the label set or identification is wrong",
            residual=off / c,
        )
    s = raw / math.sqrt(c)
    sm = SMatrix(list(labels), s, "unitary", provenance)
    provenance["unitarity_residual"] = sm.unitarity_residual()
    provenance["normalization_constant"] = c
    return sm


# -- Kac-Peterson --------------------------------------------------------------


def kac_peterson(rs: RootSystem, k: int) -> SMatrix:
    """Integrable level-k S-matrix over the labels P_+^k.

    ``S = i^{|Delta_+|} |P/(k+h)Q_check|^{-1/2} sum_w eps(w)
    e^{-2 pi i (w(lam+rho), mu+rho)/(k+h)}``.
    """
    if k < 0:
        raise SMatrixError("level must be a non-negative integer")
    labels = enumerate_P_plus_k(rs, k)
    n = k + rs.dual_coxeter
    rho = rs.weyl_vector
    shifted = _weight_ints([lam + rho for lam in labels])
    a = _weyl_sum(rs, shifted, shifted, Fraction(1, n))
    index = n ** rs.rank * rs.index_P_mod_Qcheck
    pref = (1j) ** len(rs.positive_roots) / math.sqrt(index)
    entries = pref * a
    prov = {
        "constructor": "kac_peterson",
        "type": str(rs.cartan_type),
        "level": k,
        "vacuum": 0,
    }
    sm = SMatrix(list(labels), entries, "unitary", prov)
    resid = sm.unitarity_residual()
    if resid > 1e-9 or sm.symmetry_residual() > 1e-9:
        raise SMatrixError("Kac-Peterson matrix failed its unitarity contract", residual=resid)
    prov["unitarity_residual"] = resid
    return sm


# -- principal (FKW) -----------------------------------------------------------


def fkw_principal(lv: AdmissibleLevel) -> SMatrix:
    """Principal admissible S-matrix on pairs (nu, eta), normalised to unitary."""
    rs = lv.root_system
    labels = principal_labels(lv)
    if not labels:
        raise SMatrixError(
            f"empty principal label set for {rs.cartan_type} (p,q)=({lv.p},{lv.q})"
        )
    nus = _weight_ints([l.nu for l in labels])
    etas = _weight_ints([l.eta for l in labels])
    p, q = lv.p, lv.q
    f_nu = _weyl_sum(rs, nus, nus, Fraction(q, p))
    f_eta = _weyl_sum(rs, etas, etas, Fraction(p, q))
    cross = _cross_phase(rs, nus, etas) * _cross_phase(rs, etas, nus)
    raw = cross * f_nu * f_eta
    prov = {
        "constructor": "fkw_principal",
        "type": str(rs.cartan_type),
        "p": p,
        "q": q,
        "vacuum": 0,
        "nu_factor": f_nu,
        "eta_factor": f_eta,
    }
    return _normalize(raw, labels, prov)


# -- subregular ----------------------------------------------------------------


def default_probe(rs: RootSystem) -> tuple[int, ...]:
    """Probe x with <alpha_i, x> = i (on simple-root coordinates)."""
    return tuple(range(1, rs.rank + 1))


def alternate_probe(rs: RootSystem) -> tuple[int, ...]:
    """Second probe <alpha_i, x> = 2i + 1, used by independence checks."""
    return tuple(2 * i + 1 for i in range(1, rs.rank + 1))


def conservative_weights(
    lv: AdmissibleLevel, labels: Sequence[SubregularLabel]
) -> tuple[list[Weight], list[int]]:
    """Conservative kernel arguments ``e_i = y_i(eta_i)`` and signs eps(y_i).

    ``y_i`` maps the wall root of eta_i to alpha_* (finite wall) or theta to
    -alpha_* (affine wall).  It is the :meth:`~affw.liealg.RootSystem.dominant_word`
    of the wall root, which ends at theta (the one dominant root of a simply
    laced type), then the reversed word of alpha_* or -alpha_*, which leads
    back from theta.
    """
    rs = lv.root_system
    star = _int_coords(alpha_star(rs).weight)
    words = {0: rs.dominant_word(tuple(-c for c in star))[1][::-1]}  # theta's own word is empty
    back = rs.dominant_word(star)[1][::-1]
    for wall in {l.wall_id for l in labels} - {0}:
        words[wall] = rs.dominant_word(_int_coords(rs.simple_roots[wall - 1].weight))[1] + back
    cons = []
    for l in labels:
        e = _int_coords(l.eta)
        for i in words[l.wall_id]:
            e = rs.reflect_coords(i, e)
        cons.append(Weight.of(*e))
    return cons, [(-1) ** len(words[l.wall_id]) for l in labels]


def degenerate_kernel(
    rs: RootSystem,
    x_probe: Sequence[int],
    p: int,
    q: int,
    eta: Weight,
    eta_p: Weight,
) -> complex:
    """One entry of the degenerate half-group kernel.

    The sum runs over ``{y : y(alpha_*) in Delta_+}``, alpha_* the
    :func:`~affw.affine.alpha_star` of ``rs``, with the weight factor
    ``<y(alpha_*), x>/<alpha_*, x>``; on conservative weights the value does
    not depend on the probe.  ``eta`` must satisfy ``<eta, alpha_*> = 0 (mod
    q)``, as conservative weights and 0 do: the sum is evaluated as half the
    full-group sum, which equals it only there.  Other ``eta`` raise
    :class:`SMatrixError`.
    """
    k = _weyl_sum(rs, _weight_ints([eta]), _weight_ints([eta_p]), Fraction(p, q), probe=x_probe)
    return complex(k[0, 0])


def _checkpoint_load(path: str, fingerprint: dict) -> list:
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            stored = json.loads(str(data["fingerprint"])) if "fingerprint" in data.files else {}
            other = [key for key, want in fingerprint.items() if stored.get(key) != want]
            if not other:
                return [data[k] for k in ("kernel", "nu", "count", "next")]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error) as e:
        raise SMatrixError(f"checkpoint {path} is not a readable affw checkpoint: {e}")
    raise SMatrixError(f"checkpoint {path} belongs to another job: {other[0]} is "
                       f"{stored.get(other[0])!r} there, {fingerprint[other[0]]!r} here")


def _checkpoint_save(path: str, fingerprint: dict, **state) -> None:
    """Write next to ``path`` and rename, so a crash keeps the last checkpoint."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, fingerprint=json.dumps(fingerprint, sort_keys=True), **state)
    os.replace(tmp, path)


def subregular_S(
    lv: AdmissibleLevel,
    *,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 10_000_000,
    workers: int = 1,
) -> SMatrix:
    """Subregular S-matrix: degenerate kernel times the full-Weyl nu factor.

    Entries ``eps(y_i) eps(y_j) e^{2 pi i [(e_i, nu_j) + (nu_i, e_j)]}
    K(e_i, e_j) F(nu_i, nu_j)`` over the conservative weights e_i, then
    normalised to unitary.  K is the :func:`degenerate_kernel` at the
    :func:`default_probe`; on conservative weights no probe changes it.

    K and F are :func:`_weyl_sum` over the cosets of W/W'; F is summed on the
    distinct nu only (a single global constant when p = h_check, as for E8 at
    (30, 29)).  ``workers`` (at least 1) threads take the cosets, never more
    threads than a round has cosets, and their contributions are added in
    coset order, so the result does not depend on the number of workers.  A
    round with one task (one worker, or one coset as in D4-D6) runs in the
    calling thread and starts none.  With a ``checkpoint``, once
    ``checkpoint_every`` Weyl elements have passed, and at the end, the run
    pauses at a coset boundary and saves the partial sums and the next coset
    there (npz), where a rerun of the same job resumes; without one the
    workers take all cosets in one round.  If a worker raises or the run is
    interrupted, every worker stops after its coset and the last checkpoint
    stays valid.
    A checkpoint of another job or an unreadable one, one whose directory
    does not exist, or a ``checkpoint_every`` below 1 is refused before the
    run starts.  Only the streamed job of ``affwbench`` sets ``workers`` and
    ``checkpoint``.
    """
    if workers < 1:
        raise SMatrixError(f"workers must be a positive integer, not {workers}")
    if checkpoint_every < 1:
        raise SMatrixError(f"checkpoint_every must be a positive integer, not {checkpoint_every}")
    if checkpoint and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint))):
        raise SMatrixError(f"checkpoint {checkpoint}: no such directory")
    rs = lv.root_system
    labels = subregular_labels(lv)
    if not labels:
        raise SMatrixError(
            f"empty subregular label set for {rs.cartan_type} (p,q)=({lv.p},{lv.q})"
        )
    cons, eps_y = conservative_weights(lv, labels)
    es = _weight_ints(cons)
    nus = _weight_ints([l.nu for l in labels])
    nu_rows, nu_of = np.unique(nus, axis=0, return_inverse=True)
    nu_of = nu_of.ravel()
    p, q = lv.p, lv.q
    node = _star_wall(rs)
    fr = _frame(rs)
    cosets = len(fr.parity)

    def coset(c: int) -> tuple:
        return (_weyl_sum(rs, es, es, Fraction(p, q), default_probe(rs), range(c, c + 1)),
                _weyl_sum(rs, nu_rows, nu_rows, Fraction(q, p), None, range(c, c + 1)))

    kern = np.zeros((len(es), len(es)), complex)
    f_nu = np.zeros((len(nu_rows), len(nu_rows)), complex)
    done = 0
    if checkpoint:
        fingerprint = {
            "format": CHECKPOINT_FORMAT,
            "type": str(rs.cartan_type),
            "p": p,
            "q": q,
            "alpha_star_node": node,
            "cosets": cosets,
            "labels": zlib.crc32(repr([(l.nu.coords, l.eta.coords, l.wall_id) for l in labels]).encode()),
        }
        if os.path.exists(checkpoint):
            kern, f_nu, _, done = _checkpoint_load(checkpoint, fingerprint)
            done = int(done)
    lock, halt = threading.Lock(), threading.Event()

    def work(todo, parts):
        try:
            while not halt.is_set():
                with lock:
                    c = next(todo, None)
                if c is None:
                    break
                parts[c] = coset(c)
        except BaseException:
            halt.set()  # the other workers stop after their coset
            raise

    # a pause only serves a save; it is one for all workers, so saves do not depend on them
    step = -(-checkpoint_every // fr.size) if checkpoint else cosets
    pool = None
    try:
        while done < cosets:
            stop = min(cosets, done + step)
            todo, parts = iter(range(done, stop)), {}
            tasks = min(workers, stop - done)
            if tasks == 1:
                work(todo, parts)
            else:
                pool = pool or ThreadPoolExecutor(workers)
                for f in [pool.submit(work, todo, parts) for _ in range(tasks)]:
                    f.result()
            for c in range(done, stop):
                kern += parts[c][0]
                f_nu += parts[c][1]
            done = stop
            if checkpoint:
                _checkpoint_save(checkpoint, fingerprint, kernel=kern, nu=f_nu,
                                 count=done * fr.size, next=done)
    finally:
        halt.set()
        if pool:
            pool.shutdown()

    f = f_nu[np.ix_(nu_of, nu_of)]
    cross = _cross_phase(rs, es, nus) * _cross_phase(rs, nus, es)
    sign = np.array(eps_y, dtype=float)
    raw = sign[:, None] * sign[None, :] * cross * kern * f
    prov = {
        "constructor": "subregular_S",
        "type": str(rs.cartan_type),
        "p": p,
        "q": q,
        "vacuum": 0,
        "alpha_star_node": node,
        "nu_factor_degenerate": len(nu_rows) == 1,
        "weyl_elements": done * fr.size,
        "kernel": kern,
        "nu_factor": f,
    }
    return _normalize(raw, labels, prov)


# the earlier name of the checkpointed long-run path, kept for its callers
subregular_S_streamed = subregular_S
