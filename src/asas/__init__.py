"""Short-answer scoring pipeline: features, training, tuning, stacking, evaluation."""
import os

# One BLAS thread, set before anything imports numpy: OpenBLAS splits an SVD,
# an eigendecomposition or a dense product across threads, and how it splits
# them changes the rounding, so artifacts would depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
