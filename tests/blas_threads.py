"""Thread counts of the OpenBLAS libraries loaded in this process.

Kept apart from ``helpers`` because it must not import ``lossgeom``: the
import test reads the counts before the package is loaded.
"""

import ctypes


def openblas_thread_counts():
    """{library path: thread count} for every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln[ln.index("/"):].strip() for ln in fh if "openblas" in ln.lower()}
    except OSError:  # no /proc: no library is found
        return {}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None and path not in counts:
                    get.argtypes, get.restype = [], ctypes.c_int
                    counts[path] = get()
    return counts
