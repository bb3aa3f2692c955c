"""Process set-up shared by the benchmark scripts; call before importing numpy.

Pins BLAS/OpenMP pools to one thread, so a run uses one core for numpy, and
makes ``fapolar`` importable from the ``src`` directory of the checkout that
holds this file, never from an installed copy.
"""

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare():
    """Pin thread pools and import fapolar from the checkout; exit 2 if absent."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    if not (src / "fapolar" / "__init__.py").is_file():
        print(f"error: no fapolar sources under {src}; run from a repository checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    fapolar = importlib.import_module("fapolar")
    if Path(fapolar.__file__).resolve().parent != src / "fapolar":
        print(f"error: imported fapolar from {fapolar.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def context() -> dict:
    """Machine and library facts a result depends on."""
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
