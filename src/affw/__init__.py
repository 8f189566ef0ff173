"""affw: modular data of affine vertex algebras and exceptional W-algebras.

Subpackages by concern:

* :mod:`affw.liealg` — exact root systems, weight lattices, Weyl group streams
* :mod:`affw.affine` — admissible levels, S-matrix label sets
* :mod:`affw.qseries` — exact q-series, two-variable characters, theta functions
* :mod:`affw.modular` — Kac-Peterson, principal and subregular S-matrices
* :mod:`affw.fusion` — Verlinde fusion tables and fusion-ring comparison
* :mod:`affw.opecalc` — bounded symbolic lambda-bracket engine
* :mod:`affw.cli` — the ``affw`` command-line front end
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
