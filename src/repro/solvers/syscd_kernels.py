"""The ridge SCD rule kernel, SySCD's bucket pass, and their compiled twins.

SySCD (Ioannou, Mendler-Dünner & Parnell, NeurIPS 2019) restructures
shared-memory parallel coordinate descent around three system-aware ideas:
coordinates are processed in *buckets* sized for the cache hierarchy, each
worker thread updates a *private replica* of the shared vector, and replicas
are reconciled in periodic *merge* steps instead of per-update atomics.
This module holds the numerical kernels for one bucket pass plus the exact
per-coordinate epoch, which is also the one ridge kernel of the sequential
solver, the distributed engines' local solver and the real-process
workers; the orchestration (threads, replicas, merges) lives in
:mod:`repro.solvers.syscd`.

Both formulations of ridge regression share one update rule::

    delta_j = (target[j] - <a_j, v> - N*lam * coef[j]) * inv_denom[j]

with ``target = A^T y`` / ``v = w`` for the primal and ``target = lam*y`` /
``v = wbar`` for the dual, so one kernel pair serves both bindings.

Three interchangeable backends implement the same kernels:

* **numpy** — always available; the bitwise reference implementation.
* **numba** — ``@njit(nogil=True)`` scalar loops, compiled on first use
  when numba is importable.
* **c** — the same scalar loops in C (:data:`C_SOURCE`), built on first
  use with the system ``cc``/``gcc`` into a content-keyed disk cache and
  called through :mod:`ctypes`.

The compiled backends release the GIL inside a call, so SySCD's worker
threads genuinely run in parallel on multi-core hosts.  All three are
**bit-identical** by construction, which the test suite asserts.  That is
only possible because every inner product is summed strictly left to
right, seeded with the first product (:func:`numpy.cumsum` prefix sums in
the numpy reference), rather than by BLAS ``dot`` (whose blocked
accumulation order is implementation defined), and every scatter applies
its element updates in index order (:func:`numpy.add.at`, or an in-order
loop).  No backend enables fast-math or FMA contraction.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "KERNEL_BACKENDS",
    "C_FLAGS",
    "C_SOURCE",
    "c_compiler",
    "numba_available",
    "resolve_backend",
    "get_kernels",
    "auto_bucket_size",
    "bucket_bounds",
    "exact_epoch_numpy",
    "bucket_pass_numpy",
    "get_numba_kernels",
    "get_c_kernels",
]

#: accepted values of ``SolverConfig.kernel_backend``
KERNEL_BACKENDS = ("numpy", "numba", "c", "auto")

# cached import probe: None = not probed, False = unavailable, dict = kernels
_NUMBA_KERNELS: dict | None | bool = None


def numba_available() -> bool:
    """Whether the numba JIT backend can be imported (never raises)."""
    return get_numba_kernels() is not None


def c_compiler() -> str | None:
    """Path of the system C compiler (``cc``, else ``gcc``), or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def _require_compiler() -> str:
    cc = c_compiler()
    if cc is None:
        raise ValueError(
            "kernel_backend='c' but no C compiler (cc or gcc) is on PATH; "
            "install one or use kernel_backend='auto'"
        )
    return cc


def resolve_backend(requested: str) -> str:
    """Map a requested backend name to the concrete one that will run.

    ``"auto"`` degrades gracefully: the C kernel when a C compiler is on
    ``PATH``, else numba when importable, else numpy (the three are
    bit-identical, so the choice changes speed, never results).  C comes
    first because its library is loaded from the disk cache, where numba
    pays a JIT compile in every fresh process (each spawn worker included).
    Requesting ``"numba"`` or ``"c"`` explicitly on a host without it is
    an error.  Resolution compiles nothing; the C kernel is built on the
    first :func:`get_kernels` call.
    """
    if requested not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel_backend {requested!r}; "
            f"choose from {KERNEL_BACKENDS}"
        )
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        if not numba_available():
            raise ValueError(
                "kernel_backend='numba' but numba is not importable; "
                "install numba or use kernel_backend='auto'"
            )
        return "numba"
    if requested == "c":
        _require_compiler()
        return "c"
    if c_compiler() is not None:
        return "c"
    return "numba" if numba_available() else "numpy"


def get_kernels(backend: str) -> dict:
    """The ``{"exact", "bucket"}`` kernel pair of a resolved backend."""
    if backend == "numba":
        return get_numba_kernels()
    if backend == "c":
        return get_c_kernels()
    return {"exact": exact_epoch_numpy, "bucket": bucket_pass_numpy}


def auto_bucket_size(n_coords: int, n_threads: int) -> int:
    """Default bucket size for a problem of ``n_coords`` coordinates.

    SySCD sizes buckets for the cache, but on small problems the binding
    constraint is *staleness*: each merge period applies up to
    ``n_threads * bucket_size`` updates computed against a common snapshot,
    and once that window is a large fraction of the coordinates the summed
    corrections overshoot (heavily overlapping coordinates double-count
    each other's progress and the trajectory can diverge).  Keeping the
    window at ~1/16 of the coordinates holds threaded objectives within a
    fraction of a percent of the sequential trajectory on the shipped
    datasets; 256 caps the bucket's gather working set at cache-friendly
    sizes, and the floor of 8 keeps vectorized passes worthwhile.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    return max(8, min(256, n_coords // (16 * n_threads)))


def bucket_bounds(n_coords: int, bucket_size: int) -> np.ndarray:
    """Edges of the contiguous bucket partition of ``range(n_coords)``.

    Returns an int64 array ``edges`` with ``edges[0] == 0`` and
    ``edges[-1] == n_coords``; bucket ``b`` covers positions
    ``edges[b]:edges[b+1]`` of the epoch permutation.  Every position lands
    in exactly one bucket (the partition property the hypothesis tests
    pin), and only the last bucket may be short.
    """
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    if n_coords < 0:
        raise ValueError("n_coords must be non-negative")
    return np.append(
        np.arange(0, n_coords, bucket_size, dtype=np.int64),
        np.int64(n_coords),
    )


# ---------------------------------------------------------------------------
# numpy backend (the bitwise reference)
# ---------------------------------------------------------------------------


def exact_epoch_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    target: np.ndarray,
    inv_denom: np.ndarray,
    nlam: float,
    coef: np.ndarray,
    shared: np.ndarray,
    order: np.ndarray,
) -> None:
    """Exact Algorithm-1 pass over ``order``: every update sees fresh state.

    The one reference kernel of the ridge rule: the sequential solver
    binds it for both formulations, and it is SySCD's single-thread
    semantics, which the threaded path must match on per-epoch objectives
    to tolerance.  The dot is a cumsum prefix (left-to-right accumulation
    seeded with the first product) so the compiled twins match bitwise.
    ``coef`` and ``shared`` are updated in place.
    """
    for j in order:
        lo = indptr[j]
        hi = indptr[j + 1]
        if lo == hi:
            dot = 0.0
        else:
            idx = indices[lo:hi]
            v = data[lo:hi]
            dot = np.cumsum(v * shared[idx])[-1]
        delta = (target[j] - dot - nlam * coef[j]) * inv_denom[j]
        coef[j] += delta
        if lo != hi:
            shared[idx] += v * delta


def bucket_pass_numpy(
    e_idx: np.ndarray,
    e_val: np.ndarray,
    seg_ptr: np.ndarray,
    coords: np.ndarray,
    target: np.ndarray,
    inv_denom: np.ndarray,
    nlam: float,
    coef: np.ndarray,
    replica: np.ndarray,
) -> None:
    """One bucket's updates against a private replica (stale within bucket).

    All inner products read ``replica`` as of bucket start, then every
    coordinate's update is applied — the same chunk framing as the async
    kernels, but writing a thread-private replica so no update is ever
    lost.  ``e_idx``/``e_val``/``seg_ptr`` are the bucket's slice of the
    epoch gather; ``coords`` are the coordinate ids (unique within an
    epoch permutation, so the fancy ``coef`` update has no duplicates).
    """
    prods = e_val * replica[e_idx]
    prefix = np.empty(prods.shape[0] + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(prods, dtype=np.float64, out=prefix[1:])
    dots = prefix[seg_ptr[1:]] - prefix[seg_ptr[:-1]]
    deltas = (target[coords] - dots - nlam * coef[coords]) * inv_denom[coords]
    coef[coords] += deltas
    np.add.at(replica, e_idx, e_val * np.repeat(deltas, np.diff(seg_ptr)))


# ---------------------------------------------------------------------------
# numba backend (compiled on first use; bit-identical to the numpy kernels)
# ---------------------------------------------------------------------------


def get_numba_kernels() -> dict | None:
    """The compiled kernel pair, or ``None`` when numba is unavailable.

    Compiled lazily and cached for the process; the jitted functions use
    ``nogil=True`` (parallel bucket passes across threads) and default
    strict FP semantics (no fastmath, no FMA contraction) so they replicate
    the numpy kernels' accumulation order exactly:

    * dots accumulate left-to-right, seeding the accumulator with the
      *first product* (matching ``np.cumsum``'s ``out[0] = x[0]``, not
      ``0.0 + x[0]`` — the two differ on signed zeros);
    * scatters apply element updates in flat-array order (``np.add.at``).
    """
    global _NUMBA_KERNELS
    if _NUMBA_KERNELS is not None:
        return _NUMBA_KERNELS if _NUMBA_KERNELS is not False else None
    try:
        from numba import njit
    except ImportError:
        _NUMBA_KERNELS = False
        return None

    @njit(nogil=True)
    def exact_epoch_nb(
        indptr, indices, data, target, inv_denom, nlam, coef, shared, order
    ):  # pragma: no cover - exercised only where numba is installed
        for k in range(order.shape[0]):
            j = order[k]
            lo = indptr[j]
            hi = indptr[j + 1]
            dot = 0.0
            for p in range(lo, hi):
                prod = data[p] * shared[indices[p]]
                if p == lo:
                    dot = prod
                else:
                    dot += prod
            delta = (target[j] - dot - nlam * coef[j]) * inv_denom[j]
            coef[j] += delta
            for p in range(lo, hi):
                shared[indices[p]] += data[p] * delta

    @njit(nogil=True)
    def bucket_pass_nb(
        e_idx, e_val, seg_ptr, coords, target, inv_denom, nlam, coef, replica
    ):  # pragma: no cover - exercised only where numba is installed
        n = coords.shape[0]
        dots = np.empty(n, dtype=np.float64)
        acc = 0.0
        for s in range(n):
            start = acc
            for p in range(seg_ptr[s], seg_ptr[s + 1]):
                prod = e_val[p] * replica[e_idx[p]]
                if p == 0:
                    acc = prod
                else:
                    acc += prod
            dots[s] = acc - start
        for s in range(n):
            j = coords[s]
            delta = (target[j] - dots[s] - nlam * coef[j]) * inv_denom[j]
            coef[j] += delta
            for p in range(seg_ptr[s], seg_ptr[s + 1]):
                replica[e_idx[p]] += e_val[p] * delta

    _NUMBA_KERNELS = {"exact": exact_epoch_nb, "bucket": bucket_pass_nb}
    return _NUMBA_KERNELS


# ---------------------------------------------------------------------------
# C backend (built on first use; bit-identical to the numpy kernels)
# ---------------------------------------------------------------------------

#: the numba loops above, in C; ``-ffp-contract=off`` keeps ``nlam * coef``
#: and ``data * delta`` as separately rounded products (no FMA), so every
#: operation rounds exactly as in the numpy reference
C_SOURCE = r"""
#include <stdint.h>

void exact_epoch(const int64_t *indptr, const int64_t *indices,
                 const double *data, const double *target,
                 const double *inv_denom, double nlam, double *coef,
                 double *shared, const int64_t *order, int64_t n_order)
{
    for (int64_t k = 0; k < n_order; ++k) {
        int64_t j = order[k], lo = indptr[j], hi = indptr[j + 1];
        double dot = 0.0;
        for (int64_t p = lo; p < hi; ++p) {
            double prod = data[p] * shared[indices[p]];
            dot = (p == lo) ? prod : dot + prod;
        }
        double delta = (target[j] - dot - nlam * coef[j]) * inv_denom[j];
        coef[j] += delta;
        for (int64_t p = lo; p < hi; ++p)
            shared[indices[p]] += data[p] * delta;
    }
}

void bucket_pass(const int64_t *e_idx, const double *e_val,
                 const int64_t *seg_ptr, const int64_t *coords, int64_t n,
                 const double *target, const double *inv_denom, double nlam,
                 double *coef, double *replica, double *dots)
{
    double acc = 0.0;
    for (int64_t s = 0; s < n; ++s) {
        double start = acc;
        for (int64_t p = seg_ptr[s]; p < seg_ptr[s + 1]; ++p) {
            double prod = e_val[p] * replica[e_idx[p]];
            acc = (p == 0) ? prod : acc + prod;
        }
        dots[s] = acc - start;
    }
    for (int64_t s = 0; s < n; ++s) {
        int64_t j = coords[s];
        double delta = (target[j] - dots[s] - nlam * coef[j]) * inv_denom[j];
        coef[j] += delta;
        for (int64_t p = seg_ptr[s]; p < seg_ptr[s + 1]; ++p)
            replica[e_idx[p]] += e_val[p] * delta;
    }
}
"""

#: build flags: no ``-march=native`` (the cached library may be loaded on
#: another CPU of the same architecture) and no fast-math
C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_C_KERNELS: dict | None = None
_C_LOCK = threading.Lock()


def _cache_dirs() -> list[Path]:
    """Where built libraries are kept, in order of preference."""
    return [
        Path.home() / ".cache" / "repro" / "kernels",
        Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}",
    ]


def _library_name(cc: str) -> str:
    """Content key of the build: the source, the flags and the compiler."""
    import subprocess  # only on the first C bind: keeps it off import time

    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, check=True
    ).stdout
    key = hashlib.sha256(
        "\0".join([C_SOURCE, " ".join(C_FLAGS), version]).encode()
    ).hexdigest()[:24]
    return f"ridge_scd_{key}.so"


def _private_dir(directory: Path) -> Path:
    """Create ``directory`` (mode 0o700) and check that only we can write it.

    A library found in the cache is loaded and run, so a directory that
    another user owns or can write into (a pre-created
    ``/tmp/repro-kernels-<uid>``, say) could hand us a planted library.
    Raises ``PermissionError`` for such a directory (or a symlink).
    """
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.lstat(directory)
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & 0o022
    ):
        raise PermissionError(
            f"{directory} is not a directory that only this user can write"
        )
    return directory


def _build(cc: str, directory: Path, name: str) -> Path:
    """Compile :data:`C_SOURCE` into ``directory / name`` atomically.

    The library is written under a temporary name and renamed into place,
    so processes that build concurrently never load a partial file.
    ``directory`` must already exist and be private (:func:`_private_dir`).
    """
    import subprocess

    path = directory / name
    if path.exists():
        return path
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        src = Path(tmp) / "ridge_scd.c"
        src.write_text(C_SOURCE)
        out = Path(tmp) / name
        proc = subprocess.run(
            [cc, *C_FLAGS, "-o", str(out), str(src)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"building the C kernel with {cc} failed:\n{proc.stderr}"
            )
        os.replace(out, path)
    return path


def _load_library() -> tuple[ctypes.CDLL, Path]:
    cc = _require_compiler()
    name = _library_name(cc)
    for directory in _cache_dirs():
        try:
            path = _build(cc, _private_dir(directory), name)
            break
        except OSError:
            continue  # not writable, or not ours alone: the next directory
    else:
        # no usable shared cache: build privately for this process only
        fresh = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        atexit.register(shutil.rmtree, fresh, True)
        path = _build(cc, fresh, name)
    return ctypes.CDLL(str(path)), path


def _usable(arrays, dtype) -> bool:
    return all(a.dtype == dtype and a.flags.c_contiguous for a in arrays)


def get_c_kernels() -> dict:
    """The C kernel pair, building the library on the first call.

    The built library is cached on disk under ``~/.cache/repro/kernels``
    (or a per-user temp directory when that is not writable; a cache
    directory another user owns or can write is never used, and with no
    usable one the library is built in a fresh private directory for this
    process), keyed by a
    hash of :data:`C_SOURCE`, :data:`C_FLAGS` and the compiler's
    ``--version``, so later processes — spawned workers included — load it
    without compiling.  The wrappers fall back to the numpy kernels for
    inputs the C signature cannot take (float32 values, non-int64 indices,
    non-contiguous arrays); the results are the same either way.  Raises
    ``ValueError`` without a compiler and ``RuntimeError`` when the build
    fails.
    """
    global _C_KERNELS
    with _C_LOCK:
        if _C_KERNELS is None:
            _C_KERNELS = _bind_c_library(*_load_library())
    return _C_KERNELS


def _bind_c_library(lib: ctypes.CDLL, path: Path) -> dict:
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    c_exact = lib.exact_epoch
    c_exact.argtypes = [ptr] * 5 + [f64, ptr, ptr, ptr, i64]
    c_exact.restype = None
    c_bucket = lib.bucket_pass
    c_bucket.argtypes = [ptr] * 4 + [i64, ptr, ptr, f64, ptr, ptr, ptr]
    c_bucket.restype = None
    int64, float64 = np.dtype(np.int64), np.dtype(np.float64)

    def exact_epoch_c(
        indptr, indices, data, target, inv_denom, nlam, coef, shared, order
    ):
        if not (
            _usable((indptr, indices, order), int64)
            and _usable((data, target, inv_denom, coef, shared), float64)
        ):
            return exact_epoch_numpy(
                indptr, indices, data, target, inv_denom, nlam, coef,
                shared, order,
            )
        # index *values* are checked when a CSR/CSC matrix is built; here
        # only the O(1) sizes and the per-epoch order
        n_major = indptr.shape[0] - 1
        if min(target.shape[0], inv_denom.shape[0], coef.shape[0]) < n_major:
            raise ValueError("target, inv_denom and coef need one entry per coordinate")
        if indptr[-1] > min(indices.shape[0], data.shape[0]):
            raise ValueError("indptr points past the end of indices/data")
        if order.shape[0] and (order.min() < 0 or order.max() >= n_major):
            raise IndexError(f"order holds a coordinate outside [0, {n_major})")
        c_exact(
            indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
            target.ctypes.data, inv_denom.ctypes.data, nlam,
            coef.ctypes.data, shared.ctypes.data, order.ctypes.data,
            order.shape[0],
        )

    def bucket_pass_c(
        e_idx, e_val, seg_ptr, coords, target, inv_denom, nlam, coef, replica
    ):
        if not (
            _usable((e_idx, seg_ptr, coords), int64)
            and _usable((e_val, target, inv_denom, coef, replica), float64)
        ):
            return bucket_pass_numpy(
                e_idx, e_val, seg_ptr, coords, target, inv_denom, nlam,
                coef, replica,
            )
        n = coords.shape[0]
        if seg_ptr.shape[0] != n + 1 or seg_ptr[-1] > min(e_idx.shape[0], e_val.shape[0]):
            raise ValueError("seg_ptr must delimit coords' runs of e_idx/e_val")
        dots = np.empty(n, dtype=np.float64)
        c_bucket(
            e_idx.ctypes.data, e_val.ctypes.data, seg_ptr.ctypes.data,
            coords.ctypes.data, n, target.ctypes.data, inv_denom.ctypes.data,
            nlam, coef.ctypes.data, replica.ctypes.data, dots.ctypes.data,
        )

    return {"exact": exact_epoch_c, "bucket": bucket_pass_c, "path": path}
