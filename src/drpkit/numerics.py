"""Deterministic random streams, normal special functions, and small linear-algebra
and statistics utilities shared by the coverage engines and benchmarks.

Random numbers come from numpy's Philox bit generator, a counter-based PRNG with a
128-bit key. A stream is identified by the pair (seed, stream), keyed as numpy keys
the list ``[seed, stream]``: equal pairs reproduce bit-identical draws on every platform
(for a fixed numpy version). numpy rounds that list through float64 when a value is
>= 2**63, as for about half of all substreams, so such nearby streams can share
draws (2**63 + 4096 and 2**63 + 4097 do) and 2**64 - 1 gets the key of stream 0.
Other distinct pairs give statistically independent streams. Substreams are
derived by hashing the parent stream together with caller supplied keys (blake2b,
8-byte digest), which lets independent tasks be keyed by stable identifiers such as
a simulation id.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

try:
    from threadpoolctl import threadpool_limits as _threadpool_limits
except ImportError:  # pragma: no cover
    _threadpool_limits = None

_U64 = 1 << 64
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def single_thread_blas():
    """Context manager pinning BLAS pools to one thread.

    The coverage and sampler loops are long sequences of small dense ops where
    BLAS-internal threading costs far more than it gains (and fights with the
    package's own simulation-level threads); they run under this limit.
    """
    if _threadpool_limits is None:  # pragma: no cover
        return contextlib.nullcontext()
    return _threadpool_limits(limits=1, user_api="blas")


class DecompositionError(ValueError):
    """Cholesky factorization failed; ``pivot`` is the failing pivot index."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class SeededRng:
    """A reproducible random stream identified by (seed, stream).

    Instances are cheap value objects; call :meth:`generator` to obtain a fresh
    numpy Generator positioned at the start of the stream. An instance is
    single-owner: two generators made from the same SeededRng replay the same
    draws, so concurrent tasks must use distinct substreams.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream < _U64:
            raise ValueError(f"stream must be a 64-bit unsigned integer, got {self.stream}")

    def substream(self, *keys) -> "SeededRng":
        """Derive an independent stream from this one, keyed by ints or strings."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream.to_bytes(8, "little"))
        for k in keys:
            if isinstance(k, (int, np.integer)):
                h.update(b"i" + int(k).to_bytes(8, "little", signed=True))
            elif isinstance(k, str):
                h.update(b"s" + k.encode("utf-8") + b"\x00")
            else:
                raise TypeError(f"substream keys must be int or str, got {type(k).__name__}")
        return SeededRng(self.seed, int.from_bytes(h.digest(), "little"))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(_philox_key()(self.seed, self.stream)))


@functools.cache
def _philox_key() -> type:
    """Philox's seed sequence for the key numpy derives from [seed, stream], drawing
    no OS entropy; made on first use, as numpy.random takes about 60 ms to import."""
    from numpy.random.bit_generator import ISeedSequence

    class _PhiloxKey(ISeedSequence):
        __qualname__ = "_PhiloxKey"  # pickled by name, through the module __getattr__

        def __init__(self, seed, stream):
            self.key = np.asarray([seed, stream]).astype(np.uint64)

        def generate_state(self, n_words, dtype=None):  # Philox asks for the two uint64 key words
            return self.key

    return _PhiloxKey


def __getattr__(name):
    if name != "_PhiloxKey":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _philox_key()


def norm_cdf(z: float) -> float:
    """Standard normal CDF, via the C library's erfc (accurate to ~1 ulp)."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"norm_cdf requires a finite argument, got {z}")
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_isf(p: float) -> float:
    """Standard normal inverse survival function, -cdf^-1(p) by the stdlib's
    NormalDist. Only defined for 0 < p < 1; the endpoints are infinite limits.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_isf requires 0 < p < 1, got {p}")
    return -_STD_NORMAL.inv_cdf(p)


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    LAPACK's potrf through numpy; raises :class:`DecompositionError` with the
    failing pivot index when the matrix is not positive definite. Input must be
    square, finite, and symmetric to within 1e-9 relative.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky requires a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("cholesky requires finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-9 * scale:
        raise ValueError("cholesky requires a symmetric matrix (1e-9 relative)")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:  # bisect for the smallest leading block that fails
        lo, hi = 0, a.shape[0]  # a[:lo, :lo] factors, a[:hi, :hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    raise DecompositionError(f"matrix is not positive definite: pivot {hi - 1}", pivot=hi - 1)


def ks_uniform_statistic(values) -> float:
    """Two-sided Kolmogorov-Smirnov sup-distance between the empirical CDF of
    ``values`` and the uniform CDF on [0, 1]."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("ks_uniform_statistic requires a nonempty input")
    if not np.all(np.isfinite(v)) or v[0] < 0.0 or v[-1] > 1.0:
        raise ValueError("ks_uniform_statistic requires values in [0, 1]")
    n = v.size
    i = np.arange(1, n + 1, dtype=float)
    d_plus = (i / n - v).max()
    d_minus = (v - (i - 1.0) / n).max()
    return float(max(d_plus, d_minus, 0.0))


def binomial_band(credibility_levels, n_sims: int, z: float = 3.0) -> np.ndarray:
    """Pointwise binomial half-widths z * sqrt(c (1-c) / n_sims) of an ECP estimate, one per level c."""
    levels = np.asarray(credibility_levels, dtype=float).ravel()
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    return z * np.sqrt(levels * (1.0 - levels) / n_sims)


def thread_cap() -> int:
    """Worker-thread cap from DRPKIT_THREADS: unset -> 1, 0 -> cpu count, k -> k;
    anything else raises ValueError."""
    raw = os.environ.get("DRPKIT_THREADS", "").strip()
    if raw == "":
        return 1
    try:
        cap = int(raw)
    except ValueError:
        cap = -1  # not an integer: the same error as a negative count
    if cap < 0:
        raise ValueError(f"DRPKIT_THREADS must be a non-negative integer, got {raw!r}")
    return cap or os.cpu_count() or 1


def parallel_map(fn, items):
    """Map ``fn`` over ``items`` on up to thread_cap() threads, yielding the
    results in order.

    Tasks must be pure given their arguments (independently seeded); the result
    is identical to a serial map regardless of scheduling. ``items`` is consumed
    lazily: at most two tasks per thread are in flight, so neither items nor
    results pile up ahead of the consumer.
    """
    workers = thread_cap()
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:  # a failed task or an abandoned iterator starts no further task
            for future in pending:
                future.cancel()
