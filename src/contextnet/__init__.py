"""Contextual-embedding CTR models: feature pipeline, model, training, interpretability."""
import os

# NumPy reads its BLAS thread count on first import, and the engine's narrow
# products run best on one thread. A value already set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
