"""Contextual-embedding CTR models: feature pipeline, model, training, interpretability."""
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# NumPy reads its BLAS thread count on first import, and the engine's narrow
# products run best on one thread. A value already set is kept. A program
# that imported NumPy first with none of them set runs BLAS on one thread
# per core, so the engine then adds no threads of its own (model.SCORE_WORKERS).
BLAS_THREADED = "numpy" in sys.modules and not any(v in os.environ for v in _THREAD_VARS)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")
