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

All Weyl-sum exponents are exact rationals with a fixed denominator, reduced
mod 1 and looked up in a table of roots of unity, so streaming large groups
accumulates integers and adds no floating-point drift.
"""

from __future__ import annotations

import copy
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
from typing import Callable, Optional, Sequence

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
from .liealg import WEYL_BLOCK_ROWS, RootSystem, Weight, WeylBlock, _int_numerators, weyl_blocks

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
CHECKPOINT_FORMAT = 3  # bump when the bucket or stack layout changes


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


def _phase_table(den: int) -> np.ndarray:
    """e^{-2 pi i k / den} for k = 0..den-1."""
    return np.exp(-2j * np.pi * np.arange(den) / den)


def _int_coords(w: Weight) -> tuple[int, ...]:
    if not w.is_integral():
        raise SMatrixError("expected integral weight coordinates")
    return tuple(int(c) for c in w.coords)


def _weight_ints(ws: Sequence[Weight]) -> np.ndarray:
    return np.array([_int_coords(w) for w in ws], dtype=np.int64)


# -- batched Weyl sums ---------------------------------------------------------

SLICE_TERMS = 1 << 18  # bucket increments per walker slice (bounds temporaries)


class _Buckets:
    """Integer buckets of ``sum_w c(w) exp(-2 pi i coef (w(left_i), right_j))``.

    ``acc[i, j, r]`` adds the integer weight c(w) of every element w with
    ``coef * (w(left_i), right_j) = r / den (mod 1)``.  The weight is the
    parity eps(w); with a ``probe`` x it is eps(y) <y(alpha_*), x> on the
    half group ``y(alpha_*) > 0`` and zero elsewhere.
    """

    def __init__(self, rs: RootSystem, left, right, coef: Fraction, probe=None):
        mg, dg = _int_numerators(rs.gram)
        self.den = coef.denominator * dg
        self.left = left
        # (n, m): coef (v, right_j) = v . u[:, j] / den
        self.u = coef.numerator * (mg @ right.T)
        self.acc = np.zeros((len(left), len(right), self.den), dtype=np.int64)
        self.slots = (np.arange(self.acc[..., 0].size) * self.den).reshape(self.acc.shape[:2])
        self.star = None
        if probe is not None:
            star = alpha_star(rs)
            x = np.array([int(c) for c in probe], dtype=np.int64)
            self.w0 = int(np.array(star.root_coords) @ x)
            if self.w0 == 0:
                raise SMatrixError("probe x is orthogonal to alpha_*")
            # the simple-root coordinates of a weight f are f A^{-1}
            to_roots, scale = _int_numerators(rs.cartan_inverse)
            self.star = (_weight_ints([star.weight])[0], to_roots, scale, x)

    def add(self, blk: WeylBlock) -> None:
        mats, weights = blk.matrices, blk.parity
        if self.star is not None:
            alpha_w, to_roots, scale, x = self.star
            roots = (mats @ alpha_w) @ to_roots // scale  # y(alpha_*) on simple roots
            keep = roots.sum(axis=1) > 0
            mats = mats[keep]
            weights = np.repeat(blk.parity * (roots[keep] @ x), self.slots.size)
        # coef (w(left_i), right_j) den = left_i . (w^T u)_j
        dots = self.left @ (mats.transpose(0, 2, 1) @ self.u)
        idx = (dots % self.den + self.slots).ravel()
        if np.isscalar(weights):
            self.acc += weights * np.bincount(idx, minlength=self.acc.size).reshape(self.acc.shape)
        else:
            # bincount adds in float64, exactly: a slice adds a few thousand
            # integers |<y(alpha_*), x>| <= ht(theta) max(x), far below 2**53
            hits = np.bincount(idx, weights, minlength=self.acc.size)
            self.acc += hits.astype(np.int64).reshape(self.acc.shape)

    def fresh(self) -> "_Buckets":
        """Empty buckets sharing these constants (a worker's private table)."""
        twin = copy.copy(self)
        twin.acc = np.zeros_like(self.acc)
        return twin

    def value(self) -> np.ndarray:
        table = _phase_table(self.den)
        vals = np.einsum("ijd,d->ij", self.acc, table)
        return vals if self.star is None else vals / self.w0


def _rows(sums: Sequence[_Buckets]) -> int:
    """Walker slice size that keeps one slice's temporaries near SLICE_TERMS."""
    return max(1, min(WEYL_BLOCK_ROWS, SLICE_TERMS // sum(s.slots.size for s in sums)))


def _walk(rs: RootSystem, sums: Sequence[_Buckets]) -> None:
    """Feed every Weyl block to ``sums``."""
    for blk in weyl_blocks(rs, rows=_rows(sums)):
        for s in sums:
            s.add(blk)


def _alternating_sum_matrix(
    rs: RootSystem, left: np.ndarray, right: np.ndarray, coef: Fraction
) -> np.ndarray:
    """``A[i,j] = sum_w eps(w) exp(-2 pi i coef (w(left_i), right_j))``."""
    acc = _Buckets(rs, left, right, coef)
    _walk(rs, [acc])
    return acc.value()


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
    a = _alternating_sum_matrix(rs, shifted, shifted, Fraction(1, n))
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
    sums = [_Buckets(rs, nus, nus, Fraction(q, p)), _Buckets(rs, etas, etas, Fraction(p, q))]
    _walk(rs, sums)
    f_nu, f_eta = (acc.value() for acc in sums)
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


def _element_mapping(rs: RootSystem, src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
    """A word (simple reflections, first to last) taking src to dst, by BFS
    over the (small) W-orbit of the integral weight src."""
    words: dict[tuple, tuple] = {src: ()}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            return words[v]
        for i in range(rs.rank):
            u = rs.reflect_coords(i, v)
            if u not in words:
                words[u] = words[v] + (i,)
                queue.append(u)
    raise SMatrixError("weights are not in one Weyl orbit")


def conservative_weights(
    lv: AdmissibleLevel, labels: Sequence[SubregularLabel]
) -> tuple[list[Weight], list[int]]:
    """Conservative kernel arguments ``e_i = y_i(eta_i)`` and signs eps(y_i).

    ``y_i`` maps the wall root of eta_i to alpha_* (finite wall) or theta to
    -alpha_* (affine wall); found per wall by a root-orbit walk on integer
    coordinates.
    """
    rs = lv.root_system
    star_w = _int_coords(alpha_star(rs).weight)
    words: dict[int, tuple[int, ...]] = {}
    for wall in sorted(set(l.wall_id for l in labels)):
        src = rs.highest_root if wall == 0 else rs.simple_roots[wall - 1]
        tgt = tuple(-c for c in star_w) if wall == 0 else star_w
        words[wall] = _element_mapping(rs, _int_coords(src.weight), tgt)
    cons = []
    for l in labels:
        e = _int_coords(l.eta)
        for i in words[l.wall_id]:
            e = rs.reflect_coords(i, e)
        cons.append(Weight.of(*e))
    return cons, [(-1) ** len(words[l.wall_id]) for l in labels]


def _half_group_kernel_matrix(
    rs: RootSystem,
    x_probe: Sequence[int],
    p: int,
    q: int,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """``K[i,j] = sum_{y(alpha_*)>0} eps(y) <y(alpha_*),x>/<alpha_*,x>
    e^{-2 pi i (p/q)(y(left_i), right_j)}``."""
    acc = _Buckets(rs, left, right, Fraction(p, q), probe=x_probe)
    _walk(rs, [acc])
    return acc.value()


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
    not depend on the probe.
    """
    left = _weight_ints([eta])
    right = _weight_ints([eta_p])
    k = _half_group_kernel_matrix(rs, x_probe, p, q, left, right)
    return complex(k[0, 0])


def _stack_arrays(stack: list[WeylBlock], rank: int) -> dict:
    """The pending blocks of a walk, one row per element.  A matrix entry is a
    coefficient of a coroot on the simple coroots, |entry| <= 6: int8 holds it."""
    blocks = [WeylBlock(np.empty((0, rank), np.int64), np.empty((0, rank, rank), np.int64), 0), *stack]
    return {
        "matrices": np.concatenate([b.matrices for b in blocks]).astype(np.int8),
        "depth": np.concatenate([np.full(len(b.points), b.depth, np.int16) for b in blocks]),
    }


def _checkpoint_load(path: str, fingerprint: dict) -> list:
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            stored = json.loads(str(data["fingerprint"])) if "fingerprint" in data.files else {}
            other = [key for key, want in fingerprint.items() if stored.get(key) != want]
            if not other:
                return [data[k] for k in ("kernel", "nu", "count", "matrices", "depth")]
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
    x_probe: Optional[Sequence[int]] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 10_000_000,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SMatrix:
    """Subregular S-matrix: degenerate kernel times the full-Weyl nu factor.

    Entries ``eps(y_i) eps(y_j) e^{2 pi i [(e_i, nu_j) + (nu_i, e_j)]}
    K(e_i, e_j) F(nu_i, nu_j)`` over the conservative weights e_i, then
    normalised to unitary.

    One walk over W fills the integer buckets of both K and F; F is summed
    on the distinct nu only (a single global constant when p = h_check, as
    for E8 at (30, 29)).  ``workers`` (at least 1) threads take its blocks
    into private integer buckets, so the result does not depend on their
    order or number.  Every ``checkpoint_every`` elements the walk pauses
    between blocks, merges the buckets, calls ``progress(done, |W|)`` and
    saves the buckets and its pending stack to ``checkpoint`` (npz), where a
    rerun of the same job resumes.  If a worker raises or the walk is
    interrupted, every worker stops at its next block and the last
    checkpoint stays valid.  A checkpoint of another job or an unreadable
    one, one whose directory does not exist, or a ``checkpoint_every``
    below 1 is refused before the walk starts.
    """
    if workers < 1:
        raise SMatrixError(f"workers must be a positive integer, not {workers}")
    if checkpoint_every < 1:
        raise SMatrixError(f"checkpoint_every must be a positive integer, not {checkpoint_every}")
    if checkpoint and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint))):
        raise SMatrixError(f"checkpoint {checkpoint}: no such directory")
    rs = lv.root_system
    if x_probe is None:
        x_probe = default_probe(rs)
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
    kern = _Buckets(rs, es, es, Fraction(p, q), probe=x_probe)
    f_nu = _Buckets(rs, nu_rows, nu_rows, Fraction(q, p))
    node = _star_wall(rs)

    seen, stack = 0, [WeylBlock.identity(rs.rank)]
    fingerprint = {
        "format": CHECKPOINT_FORMAT,
        "type": str(rs.cartan_type),
        "p": p,
        "q": q,
        "probe": [int(c) for c in x_probe],
        "alpha_star_node": node,
        "den": [kern.den, f_nu.den],
        "labels": zlib.crc32(repr([(l.nu.coords, l.eta.coords, l.wall_id) for l in labels]).encode()),
    }
    if checkpoint and os.path.exists(checkpoint):
        kern.acc, f_nu.acc, count, mats, depth = _checkpoint_load(checkpoint, fingerprint)
        # one block per depth, as each depth is one block's children; w(rho) = row sums
        mats = mats.astype(np.int64)
        stack = [WeylBlock(mats[depth == d].sum(axis=2), mats[depth == d], int(d)) for d in np.unique(depth)]
        seen = int(count)
    blocks = weyl_blocks(rs, stack, _rows([kern, f_nu]))
    lock, halt = threading.Lock(), threading.Event()

    def work(until):
        nonlocal seen
        part = [kern.fresh(), f_nu.fresh()]
        try:
            while not halt.is_set():
                with lock:
                    if seen >= until or not stack:
                        break
                    blk = next(blocks)
                    seen += len(blk.points)
                for s in part:
                    s.add(blk)
        except BaseException:
            halt.set()  # the other workers stop at their next block
            raise
        return part

    pool = ThreadPoolExecutor(workers)
    try:
        while stack:
            until = seen + checkpoint_every  # one pause for all workers: saves do not depend on them
            for f in [pool.submit(work, until) for _ in range(workers)]:
                for total, part in zip((kern, f_nu), f.result()):
                    total.acc += part.acc
            if checkpoint:
                _checkpoint_save(checkpoint, fingerprint, kernel=kern.acc, nu=f_nu.acc,
                                 count=seen, **_stack_arrays(stack, rs.rank))
            if progress:
                progress(seen, rs.weyl_order)
    finally:
        halt.set()
        pool.shutdown()

    k = kern.value()
    f = f_nu.value()[np.ix_(nu_of, nu_of)]
    cross = _cross_phase(rs, es, nus) * _cross_phase(rs, nus, es)
    sign = np.array(eps_y, dtype=float)
    raw = sign[:, None] * sign[None, :] * cross * k * f
    prov = {
        "constructor": "subregular_S",
        "type": str(rs.cartan_type),
        "p": p,
        "q": q,
        "vacuum": 0,
        "alpha_star_node": node,
        "probe": tuple(x_probe),
        "nu_factor_degenerate": len(nu_rows) == 1,
        "weyl_elements": seen,
        "kernel": k,
        "nu_factor": f,
    }
    return _normalize(raw, labels, prov)


# the earlier name of the checkpointed long-run path, kept for its callers
subregular_S_streamed = subregular_S
