"""Self-supervised refinement of a masked language model for zero-shot
pronoun disambiguation, with perturbation-token conditioning, a windowed
token-matching similarity metric and a masked-candidate scorer."""

import os

# one BLAS thread unless the caller set one, before numpy loads: it is part of the bits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
