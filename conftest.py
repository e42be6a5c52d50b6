"""Test-session setup: NumPy's BLAS runs on one thread.

The engine's products are narrow ([B*f, k] @ [k, k] with k = 10), so a
second BLAS thread makes no step faster. It doubles the CPU a test run
takes, and on a busy machine each product waits for that thread to be
scheduled: on a 2-core machine with one core held by another process,
training at the ML-1m shape (B=1024) ran 2.3-2.6x slower with two threads
than with one. The ML-1m acceptance fixture is most of the suite's wall
time. The thread count is read when NumPy is first imported, so it is set
here, before any test module loads NumPy. A value already in the
environment is kept.
"""
import contextnet  # noqa: F401  (its import sets the thread count)
