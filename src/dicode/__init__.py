"""Deterministic identification over Gaussian and fading channels.

The package splits into construction (``galois``, ``rs``, ``codebook``,
``packing``), channel simulation (``fading``, ``channel``), verification
(``decoder``), rate analysis (``bounds``), and the experiment harness
(``harness``).  Import names from those submodules, e.g.
``from dicode.codebook import plan_params``; the top level re-exports
nothing, so ``import dicode`` loads neither numpy nor any submodule.
The ``dicode`` console script fronts the same machinery.

Importing dicode before numpy starts OpenBLAS with one thread, unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set.
dicode's matrix products are small (outer encoding blocks, one Gram
matrix per packing book) and the trial loop runs its own ``workers``
threads.  A BLAS thread pool gains nothing on such products, while its
idle threads spin between calls and take cores from the trial workers.
On a two-vCPU Xeon VM the pool added 0.1 s to the import, made one
120 x 4096 Gram matrix take 0.09 s instead of 0.01 s, and spread the
wall times of repeated n = 15625 encodes five times wider.
"""

import os as _os

if not any(v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
