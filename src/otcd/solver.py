"""Dense entropic optimal transport between point sets.

Solves, for a nonnegative cost matrix ``C`` and uniform marginals
``mu0 = 1/n0``, ``mu1 = 1/n1``:

* balanced: ``min <P, C> + epsilon * sum(P * (log P - 1))`` subject to
  ``P 1 = mu0`` and ``P^T 1 = mu1``, by Sinkhorn scaling;
* semi-relaxed unbalanced: the target constraint ``P^T 1 = mu1`` stays hard
  while the source constraint is replaced by a penalty
  ``rho * KL(P 1 || mu0)``, letting the plan create or destroy source mass.
  The scaling update for the source side is damped by the exponent
  ``rho / (rho + epsilon)``, and each is followed by a translation of the
  potentials that leaves the plan unchanged; the target update stays exact.

Both run one stabilized scaling iteration (Schmitzer, SIAM J. Sci. Comput.
2019): the Gibbs kernel is built once, in the cost matrix's buffer, with
log-potentials folded in so that no entry underflows at the start, and the
scalings are absorbed back into the kernel whenever they drift far from 1.
Each sweep is two BLAS matrix-vector products into buffers allocated once
per solve; a large solve at a loose enough tol runs them on a float32 copy
of the float64 kernel, refreshed at each absorption. Sweeps of both
problems are over-relaxed once the rate at which they converge has been
measured, from sweep 12 on; a relaxed solve that diverges measures that
rate again over a window twice as long. The barycentric projection of a
plan onto the target support lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# column-mass fraction of a uniform target atom below which a target point
# counts as unreached by the plan
MASS_FLOOR_FRACTION = 1e-3

# refuse a dense matrix larger than this fraction of the available RAM
_MEMORY_SAFETY = 0.85

# cap on the cells used for the epsilon_rel median estimate; an exact
# median of a larger matrix would cost a sort-sized copy of it
_MEDIAN_SAMPLE_CELLS = 1 << 19

# scalings outside [1/_ABSORB_BOUND, _ABSORB_BOUND] are absorbed into the
# kernel, far from float64 overflow and underflow
_ABSORB_BOUND = 1e50

# a solve of at least this many cells sweeps on a float32 copy of its
# kernel. On a 2-core Xeon with 2 MiB of L2 per core and one BLAS thread, a
# 1150x335 gemv pair takes ~70 us in float32, casts included, against
# ~250 us in float64, whose 3 MB kernel does not fit in L2. A smaller
# float64 kernel (1 MiB at this bound) fits, and float32 gains less: 15
# against 22 us at 600x85. Swept in float32, the ot_halo_sweep chunks (at
# most ~83k cells) took 3,827 sweeps against 3,824, in no less time
_FLOAT32_MIN_CELLS = 1 << 17
# ... and only at a tol this loose or looser: float32 row sums do not reach
# a tighter gap. At tol 1e-8, 1 of the 8 uot chunk solves of six-building
# scenes 1 and 2 (cap 2500) ran out of sweeps in float32; in float64 all 8
# converged, in 872 sweeps
_FLOAT32_MIN_TOL = 8 * float(np.finfo(np.float32).eps)
# float32 kernel entries below this are swept as 0: subnormal entries make
# the float32 gemvs slow (unflushed, the six_uot_1e-3 family of
# scripts/solver_families.py took 2.2 s against 0.53 s)
_FLOAT32_FLUSH = 1e-30
# the absorption bound of a float32 solve, so that a scaling cast to float32
# lies far from its overflow and underflow
_ABSORB_BOUND_FLOAT32 = 1e15
# the float32 copy is refreshed in blocks of rows of about this many cells,
# so that the flush needs no mask as large as the kernel
_REFRESH_BLOCK_CELLS = 1 << 16

# a solve first measures how fast its stopping gap contracts over windows
# of this many sweeps; the first window is warm-up, so sweeps are first
# relaxed at sweep 12
_RATE_SWEEPS = 6
# a relaxed solve that diverges doubles its window, up to this many sweeps,
# and measures its rate again from a warm-up window; short windows relax
# early, long ones measure a slow solve's rate well enough to relax it
_RATE_SWEEPS_MAX = 32
# a rate whose over-relaxation factor reaches this bound (above ~0.999994)
# means the gaps barely contract yet, or stall between jumps: sweeps stay
# plain and the rate is measured again one window later. Below it, factors
# near 2 are what slow, ill-conditioned instances need (2x2 costs whose two
# assignments differ by ~25 epsilon); there the gaps contract steadily
_OMEGA_MAX = 1.995
# a relaxed iteration's transient lasts about 1 / (2 - omega) sweeps; the
# rate windows, of the length in force, that cover this many of those after
# relaxing starts or omega grows are not compared: one or two 6-sweep
# windows for the omega of 1.6-1.8 that the benchmark's chunks relax with
_GRACE_TRANSIENTS = 2.0
# an over-relaxed gap this far above its best value since relaxing last
# began, or a relaxed scaling this far beyond the absorption bounds, counts
# as divergence: the window doubles, and at _RATE_SWEEPS_MAX sweeps the
# solve stays plain for good
_DIVERGENCE = 1e3


class SolverNumericalError(ArithmeticError):
    """The scaling iteration produced non-finite values; retry with a
    larger epsilon."""


class SolverResourceError(MemoryError):
    """A dense solve would not fit in available memory."""


@dataclass(frozen=True)
class SolverConfig:
    """Entropic OT solver parameters; the defaults are ``otcd detect``'s.

    At most one of ``epsilon`` (absolute, squared meters) or
    ``epsilon_rel`` (multiplied by the median cost of the instance at hand)
    may be set; with neither, ``epsilon_rel`` is 0.01. ``rho`` weighs the
    KL penalty on the source marginal, is positive and finite, and is only
    consulted by the unbalanced solver. ``tol`` bounds the L1 marginal
    violation (balanced) or the L1 drift of the detected source marginal
    between sweeps (unbalanced).
    """

    epsilon: float | None = None
    epsilon_rel: float | None = None
    rho: float = 1000.0
    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.epsilon is None and self.epsilon_rel is None:
            object.__setattr__(self, "epsilon_rel", 0.01)
        if self.epsilon is not None and self.epsilon_rel is not None:
            raise ValueError("set at most one of epsilon / epsilon_rel")
        # an infinite epsilon makes every kernel entry 1: a uniform plan
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.epsilon_rel is not None and not 0 < self.epsilon_rel < math.inf:
            raise ValueError("epsilon_rel must be positive and finite")
        if self.rho is None or not 0 < self.rho < math.inf:
            raise ValueError(
                "rho must be positive and finite; rho=inf is the balanced problem: "
                "use method ot (METHOD_BALANCED_OT) or sinkhorn_balanced"
            )
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")

    def resolved(self, C: np.ndarray) -> "SolverConfig":
        """Concrete config for one instance: epsilon_rel * median(C).

        The median partitions a copy, so matrices beyond ~0.5M cells use
        the median of a deterministic strided subsample instead (relative
        error well under a percent, irrelevant at the accuracy epsilon_rel
        is chosen with). It has the bits of ``np.median`` at about a sixth
        of its cost (see :func:`_median`). When the median is 0 (mostly
        coincident points), the mean cost stands in for it; when every
        cost is 0 the plan does not depend on epsilon, and epsilon_rel
        itself is used.
        """
        if self.epsilon is not None:
            return self
        flat = C.ravel()
        if flat.size > _MEDIAN_SAMPLE_CELLS:
            flat = flat[:: flat.size // _MEDIAN_SAMPLE_CELLS + 1]
        scale = _median(flat) or float(flat.mean()) or 1.0
        eps = self.epsilon_rel * scale
        if not 0 < eps < math.inf:
            raise ValueError(
                f"epsilon_rel={self.epsilon_rel} resolved to {eps}; "
                "the costs must be finite and nonnegative"
            )
        return replace(self, epsilon=eps, epsilon_rel=None)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array without NaNs, to the bit.

    One partition at the upper middle rank, plus a max over the lower half
    for even sizes, whose two middle values are then averaged as
    ``np.median`` does; on 57k cells this takes ~0.1 ms against ~0.6 ms
    for ``np.median``, which partitions at two or three ranks and checks
    for NaN.
    """
    k = x.size // 2
    part = np.partition(x, k)
    if x.size % 2:
        return float(part[k])
    return float((part[:k].max() + part[k]) / 2)


@dataclass
class TransportPlan:
    """Dense coupling between a source and a target chunk.

    Marginals are recomputed from the coupling on every access, so they can
    never go stale. A solver also records the epsilon it solved at, its
    last stopping gap (the quantity compared with ``tol``) and ``omega``,
    the over-relaxation factor it used: 1.0 when every sweep was plain.
    """

    coupling: np.ndarray
    converged: bool
    iterations: int
    epsilon: float = math.nan
    gap: float = math.nan
    omega: float = 1.0

    @property
    def row_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=0)


def _available_memory_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _dense_matrix(
    n0: int, n1: int, what: str, n_bytes: int | None = None, dtype=np.float64
) -> np.ndarray:
    """An uninitialized ``(n0, n1)`` matrix of ``dtype`` for ``what``; the
    one guard on dense allocations. It admits ``n_bytes``, by default the
    matrix's own: a caller that allocates more of a solve later asks for
    all of it here. Raises :class:`SolverResourceError`, naming GiB, when
    ``n_bytes`` exceeds ``_MEMORY_SAFETY`` of the available memory or the
    matrix cannot be allocated."""
    if n_bytes is None:
        n_bytes = np.dtype(dtype).itemsize * n0 * n1
    avail = _available_memory_bytes()
    if avail is not None and n_bytes > _MEMORY_SAFETY * avail:
        raise SolverResourceError(
            f"{what} needs {n_bytes / 2**30:.2f} GiB but only "
            f"{avail / 2**30:.2f} GiB of memory is available; reduce the "
            "chunk point cap or solve on a larger machine"
        )
    try:
        return np.empty((n0, n1), dtype)
    except MemoryError as exc:
        raise SolverResourceError(str(exc)) from None


def _sweeps_in_float32(n0: int, n1: int, tol: float) -> bool:
    """The precision rule: a solve sweeps on a float32 copy of its kernel
    when it is large enough to pay (``_FLOAT32_MIN_CELLS``) and its ``tol``
    loose enough for float32 row sums to reach (``_FLOAT32_MIN_TOL``)."""
    return n0 * n1 >= _FLOAT32_MIN_CELLS and tol >= _FLOAT32_MIN_TOL


def dense_solve_bytes(n0: int, n1: int, tol: float) -> int:
    """Estimated peak bytes for one dense solve at ``tol``: the float64 cost
    matrix, whose buffer then holds the kernel and the plan, plus the
    float32 copy of the kernel when the solve sweeps on one
    (:func:`_sweeps_in_float32`); 12 or 8 bytes per cell."""
    return (12 if _sweeps_in_float32(n0, n1, tol) else 8) * n0 * n1


def cost_matrix(
    X0: np.ndarray, X1: np.ndarray, *, tol: float | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (n0, n1).

    Point sets are centered jointly before the product expansion so that
    survey-scale absolute coordinates do not lose precision; squared
    distances are translation invariant, so the result is unchanged.

    Given the ``tol`` of the solve that will overwrite it, the memory guard
    admits that whole solve (:func:`dense_solve_bytes`) before the matrix is
    allocated, so the solve cannot then fail on its float32 kernel; without
    it, the matrix alone.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    X1 = np.asarray(X1, dtype=np.float64)
    if X0.ndim != 2 or X1.ndim != 2 or X0.shape[1] != X1.shape[1]:
        raise ValueError(f"incompatible point sets {X0.shape} and {X1.shape}")
    if len(X0) == 0 or len(X1) == 0:
        raise ValueError("point sets must be non-empty")
    if not (np.isfinite(X0).all() and np.isfinite(X1).all()):
        raise ValueError("points must be finite")
    n0, n1 = len(X0), len(X1)
    C = _dense_matrix(
        n0,
        n1,
        f"{n0}x{n1} cost matrix",
        None if tol is None else dense_solve_bytes(n0, n1, tol),
    )
    center = 0.5 * (X0.mean(axis=0) + X1.mean(axis=0))
    A = X0 - center
    B = X1 - center
    np.matmul(-2.0 * A, B.T, out=C)
    C += (A * A).sum(axis=1)[:, None]
    C += (B * B).sum(axis=1)[None, :]
    np.maximum(C, 0.0, out=C)
    return C


def _validate_cost(C: np.ndarray) -> np.ndarray:
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"cost matrix must be 2D and non-empty, got {C.shape}")
    # min/max reductions propagate NaN and catch +-inf without allocating
    # elementwise temporaries, which matters for multi-GiB chunks
    lo, hi = float(C.min()), float(C.max())
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0:
        raise ValueError("cost entries must be finite and nonnegative")
    return C


def _in_range(x: np.ndarray, bound: float) -> bool:
    """True when every nonzero entry lies within ``[1/bound, bound]`` (so
    none is NaN or infinite); a zero scaling marks a row or column that
    holds no mass and stays 0. The masked minimum only runs once a plain
    one falls below the bound."""
    low = 1.0 / bound
    return x.max() <= bound and (
        x.min() >= low or np.min(x, where=x > 0, initial=bound) >= low
    )


def _scaling(mass: float, denom: np.ndarray, out: np.ndarray) -> None:
    """``out = mass / denom``, with 0 where ``denom`` is 0: a row or column
    that no mass reaches keeps a zero scaling rather than an infinite one."""
    np.divide(mass, denom, out=out)
    out[denom == 0] = 0.0


def _target_scaling(
    K: np.ndarray, u: np.ndarray, mu1: float, Ktu: np.ndarray, out: np.ndarray
) -> None:
    """``out`` = the ``v`` that makes every column of ``diag(u) K diag(v)``
    sum to ``mu1``, through the buffer ``Ktu``; a column that no mass
    reaches gets 0."""
    np.matmul(u, K, out=Ktu)
    _scaling(mu1, Ktu, out)


def _relax(x: np.ndarray, x_hat: np.ndarray, omega: float) -> None:
    """Over-relax ``x`` in place to ``x**(1 - omega) * x_hat**omega``, a
    step ``omega`` times the plain one in the log domain, where ``x_hat`` is
    the plain update. A zero ``x`` gives a non-finite entry, which the
    caller treats as divergence."""
    np.divide(x_hat, x, out=x)
    x **= omega - 1.0
    x *= x_hat


@np.errstate(divide="ignore", invalid="ignore")
def _translation(
    a: np.ndarray, u: np.ndarray, eps_over_rho: float, mu0: float, buf: np.ndarray
) -> float:
    """The constant ``t`` that, added to the source log-potential
    ``a + log u`` and taken from the target one, maximizes the semi-relaxed
    dual over such shifts, which leave the plan as it is (Séjourné, Vialard
    and Peyré, AISTATS 2022):
    ``t = (rho/eps) log(mu0 sum_i exp(-(eps/rho)(a_i + log u_i)))``.

    The sum runs over the rows with ``u > 0``, as a log-sum-exp shifted by
    its largest term: a row that holds no mass has no potential. When every
    row is empty, or ``t`` lies beyond the float range, it is 0: no
    translation. ``buf`` is a work vector of ``u``'s length."""
    np.log(u, out=buf)
    buf += a
    buf *= -eps_over_rho
    top = float(buf.max())
    if top == math.inf:
        buf[u == 0] = -math.inf
        top = float(buf.max())
    buf -= top
    np.exp(buf, out=buf)
    t = (math.log(mu0 * float(buf.sum())) + top) / eps_over_rho
    return t if math.isfinite(t) else 0.0


def _relaxation_factor(rate: float) -> float:
    """Over-relaxation factor ``2 / (1 + sqrt(1 - rate))`` for plain sweeps
    that contract the stopping gap by ``rate`` each (Lehmann, von Renesse,
    Sambale and Uschmajew, Optim. Lett. 2022); 2 for a rate of 1 or more."""
    return 2.0 / (1.0 + math.sqrt(max(1.0 - rate, 0.0)))


def _plain_rate(relaxed_rate: float, omega: float) -> float:
    """The plain rate ``lam`` that makes sweeps relaxed by ``omega`` contract
    by ``relaxed_rate`` each, from Young's relation for the 2-cyclic
    alternating updates of either problem, ``(relaxed_rate + omega - 1)**2
    = relaxed_rate * omega**2 * lam``. It holds while ``omega`` is below
    the optimal factor, that is while ``relaxed_rate > omega - 1``."""
    return (relaxed_rate + omega - 1.0) ** 2 / (relaxed_rate * omega * omega)


def _grace_windows(omega: float, window: int) -> int:
    """The number of rate windows of ``window`` sweeps, at least 1 for
    ``omega`` below 2, that cover ``_GRACE_TRANSIENTS`` transients of sweeps
    relaxed by ``omega``."""
    return math.ceil(_GRACE_TRANSIENTS / ((2.0 - omega) * window))


def _lengthened(window: int, iterations: int) -> tuple[int, float]:
    """The rate window, and the sweep that ends its warm-up, after a
    relaxed solve diverged at sweep ``iterations`` on windows of ``window``
    sweeps: twice as long, up to ``_RATE_SWEEPS_MAX``. Once the full window
    diverged, the end is infinite: the solve stays plain for good."""
    if window == _RATE_SWEEPS_MAX:
        return window, math.inf
    window = min(2 * window, _RATE_SWEEPS_MAX)
    return window, iterations + window


class _GibbsKernel:
    """The Gibbs kernel of one solve, and the matrix its sweeps read.

    ``K``, in float64, is the master: the solve builds it, absorbs its
    scalings into it, refits on it and returns it as the plan. Under the
    precision rule (:func:`_sweeps_in_float32`) the two gemvs of a sweep
    read a float32 copy of ``K`` through two cast vectors, and an
    absorption refreshes that copy from ``K``; otherwise they read ``K``
    itself. ``absorb_bound`` is the absorption bound that suits the copy.
    """

    def __init__(self, K: np.ndarray, tol: float) -> None:
        n0, n1 = K.shape
        self.K = K
        self.sweep = K
        self.absorb_bound = _ABSORB_BOUND
        if _sweeps_in_float32(n0, n1, tol):
            self.sweep = _dense_matrix(
                n0, n1, "the float32 Gibbs kernel", dtype=np.float32
            )
            self.absorb_bound = _ABSORB_BOUND_FLOAT32
            self._rows = np.empty(n0, np.float32)
            self._cols = np.empty(n1, np.float32)
            self._refresh()

    def _refresh(self) -> None:
        """Cast ``K`` into the float32 copy, one block of rows at a time,
        with the entries below ``_FLOAT32_FLUSH`` set to 0. The mask is
        taken on ``K``: comparisons of float32 subnormals are slow too."""
        n0, n1 = self.K.shape
        step = max(1, _REFRESH_BLOCK_CELLS // n1)
        keep = np.empty((step, n1), dtype=bool)
        for start in range(0, n0, step):
            block = self.sweep[start : start + step]
            master = self.K[start : start + step]
            kept = keep[: len(master)]
            np.greater_equal(master, _FLOAT32_FLUSH, out=kept)
            np.copyto(block, master, casting="same_kind")
            np.multiply(block, kept, out=block)

    def absorb(self, u: np.ndarray, v: np.ndarray) -> None:
        """Scale ``K`` to ``diag(u) K diag(v)``, in float64, and refresh
        the copy the sweeps read."""
        self.K *= u[:, None]
        self.K *= v
        if self.sweep is not self.K:
            self._refresh()

    def vecmat(self, u: np.ndarray, out: np.ndarray) -> None:
        """``out = u K``, a gemv on the matrix the sweeps read."""
        if self.sweep is self.K:
            np.matmul(u, self.K, out=out)
            return
        np.copyto(self._rows, u, casting="same_kind")
        np.matmul(self._rows, self.sweep, out=self._cols)
        np.copyto(out, self._cols)

    def matvec(self, v: np.ndarray, out: np.ndarray) -> None:
        """``out = K v``, a gemv on the matrix the sweeps read."""
        if self.sweep is self.K:
            np.matmul(self.K, v, out=out)
            return
        np.copyto(self._cols, v, casting="same_kind")
        np.matmul(self.sweep, self._cols, out=self._rows)
        np.copyto(out, self._rows)


# the loop checks the gap and the scalings for non-finite values itself
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _sinkhorn(
    C: np.ndarray,
    eps: float,
    rho: float | None,
    max_iter: int,
    tol: float,
    overwrite_cost: bool,
) -> TransportPlan:
    """Stabilized scaling on ``K = exp(-C/eps + a_i + b_j)``.

    ``a`` and ``b`` start as a row and then a column c-transform, so every
    row and column of ``K`` holds an entry equal to 1 and none exceeds it.
    The plan is ``diag(u) K diag(v)``. ``a`` is kept because the damped
    source update depends on the full source log-potential ``a + log u``;
    ``b`` never enters an update and is folded into ``K`` only.

    Entries whose reduced cost ``C/eps - a_i - b_j`` exceeds ~745 underflow
    to 0 when ``K`` is built and stay 0, so the plan then solves the problem
    restricted to the remaining pairs. On the synthetic scenes' chunks at
    ``epsilon_rel`` 0.01 the largest reduced cost is ~750 (one entry in
    6.6M lost); at 0.001 about 40% of the entries, the farthest pairs, are
    lost. At an absolute epsilon of 1e-4 on unit random costs the plan
    differs visibly from the exact entropic one.

    Both problems are over-relaxed (Thibault, Chizat, Dossal and Papadakis,
    Algorithms 2021). A solve measures the rate r at which the stopping gap
    contracts per sweep over windows of ``_RATE_SWEEPS`` (6) sweeps; after
    the first, warm-up window, at sweep 12, it sets
    ``omega = 2 / (1 + sqrt(1 - r))`` and updates both scalings as
    ``x**(1 - omega) * x_hat**omega``, where ``x_hat`` is the plain update.
    The windows of the relaxed transient, in which the gap jumps
    (:func:`_grace_windows`; one or two on the benchmark's chunks), are not
    compared. After them, a relaxed window that contracts no faster than r
    sends the solve back to plain sweeps, which measure r afresh after a
    warm-up window. One that contracts more slowly than ``omega`` allows
    raises ``omega`` to the factor of the plain rate that it implies
    (:func:`_plain_rate`), so that a solve whose plain rate keeps slowing
    follows it.

    A relaxed solve diverges when the gap turns NaN or exceeds
    ``_DIVERGENCE`` times its best since this relaxed phase began (the gap
    a fallback leaves can be far above an earlier phase's best), or when a
    scaling overshoots the absorption bounds by that factor. It then goes
    on with plain sweeps, doubles its window (6, 12, 24, then
    ``_RATE_SWEEPS_MAX`` = 32 sweeps) and measures r again from a warm-up
    window: short windows relax early, and a longer one measures a slow
    solve's rate well enough to relax it.
    A divergence on the full window returns the solve to plain sweeps for
    good, and so does a gap that reaches ``tol``: convergence is always
    declared on a plain sweep.

    An unbalanced solve also translates the potentials after each source
    update: ``a`` gains the constant of :func:`_translation` and ``b``
    loses it, so ``K``, the scalings and the plan stay as they are. The
    constant-offset mode of the potentials is invisible in a plan with
    exact columns, but a relaxed ``v`` breaks the columns, and that mode
    then shows as total mass in the row drift the solve stops on. Sweeps
    settle that mode only at about the damping rate ``rho / (rho + eps)``
    (0.998 at rho 1000 on the synthetic chunks). Without the translation,
    the relaxed drift of a ``uot_large_chunks`` chunk in the benchmark
    shrinks by 0.988 per sweep at 4e-4, slower than the 0.970 of the plain
    sweeps before; the solve falls back to plain sweeps and stops two
    sweeps later, with scores up to 9e-4 m from the fixed point. With it,
    the drift follows the plan: the chunks of the benchmark's seed-1 scenes
    take 77-100 sweeps instead of 244-425, with scores within 1.1e-4 m of
    the fixed point, against 3.1e-3 m for plain sweeps.

    Mat-vecs are BLAS gemv calls (``np.matmul``) into vectors allocated
    once per solve, and the scalings are updated in place. Under the
    precision rule (:func:`_sweeps_in_float32`: from 2**17 cells, at a
    ``tol`` of at least 8 float32 epsilons) the two gemvs of a sweep read a
    float32 copy of ``K`` through float32 casts of ``u`` and ``v``
    (:class:`_GibbsKernel`), and the absorption bound is 1e15; ``K``, the
    scalings, the potentials, the gap, the translation, the final refit
    and the plan stay float64. On the benchmark's ``uot_large_chunks``
    chunks (~1150 x 335) a float32 gemv pair takes ~70 us against ~250 us,
    and the 12 chunk solves of its seed-1 scenes take 1,104 sweeps
    against 1,103 in float64. Below the rule the gemvs read ``K`` itself.
    A product that OpenBLAS splits across threads (a gemv from ~9.2k
    cells) can round differently at another BLAS thread count; the worker
    count does not change it.
    """
    n0, n1 = C.shape
    mu0 = 1.0 / n0
    mu1 = 1.0 / n1
    K = (
        C
        if overwrite_cost
        else _dense_matrix(
            n0, n1, "materializing the Gibbs kernel", dense_solve_bytes(n0, n1, tol)
        )
    )
    np.multiply(C, -1.0 / eps, out=K)
    a = -K.max(axis=1)
    K += a[:, None]
    K -= K.max(axis=0)
    np.exp(K, out=K)
    kernel = _GibbsKernel(K, tol)

    damping = 1.0 if rho is None else rho / (rho + eps)
    # the damped update of log u is damping * log(mu0 / Kv) + (damping - 1) * a
    shift = np.exp((damping - 1.0) * a)
    u, u_hat = np.ones(n0), np.empty(n0)
    v, v_hat = np.ones(n1), np.empty(n1)
    Ktu, Kv = np.empty(n1), np.empty(n0)
    # against an infinite previous row, the first unbalanced gap is infinite
    row, prev_row, diff = np.empty(n0), np.full(n0, math.inf), np.empty(n0)
    omega, relaxing, grace = 1.0, False, 0
    # against an infinite gap the warm-up window measures a rate of 0,
    # which leaves the sweeps plain; window_end is the sweep that closes
    # the current rate window, infinite once the rate is no longer measured
    window, window_end, window_gap = _RATE_SWEEPS, _RATE_SWEEPS, math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # v_hat and u_hat keep this sweep's plain updates for the fallback
        # below
        kernel.vecmat(u, Ktu)
        _scaling(mu1, Ktu, out=v_hat)
        if relaxing:
            _relax(v, v_hat, omega)
        else:
            np.copyto(v, v_hat)
        kernel.matvec(v, Kv)
        np.multiply(u, Kv, out=row)
        np.subtract(row, mu0 if rho is None else prev_row, out=diff)
        gap = float(np.abs(diff, out=diff).sum())
        if relaxing:
            best = min(best, gap)
            if not gap <= _DIVERGENCE * best:
                # a NaN gap, or one far above its best: the relaxed iteration
                # diverges; plain sweeps from the current (finite) u on, which
                # measure the rate again on a longer window
                omega, relaxing, window_gap = 1.0, False, math.inf
                window, window_end = _lengthened(window, iterations)
                continue
        elif math.isnan(gap):
            raise SolverNumericalError(
                "non-finite values during Sinkhorn iteration; increase epsilon"
            )
        if gap <= tol:
            if not relaxing:
                converged = True
                break
            # finish with plain sweeps, so that a converged plan meets the
            # same marginal bound as plain Sinkhorn
            relaxing, window_end = False, math.inf
        elif iterations == window_end:
            window_rate = (gap / window_gap) ** (1.0 / window)
            window_gap, window_end = gap, window_end + window
            if not relaxing:
                rate = window_rate
                omega = _relaxation_factor(rate)
                relaxing = 1.0 < omega < _OMEGA_MAX
                omega = omega if relaxing else 1.0
                grace = _grace_windows(omega, window)
                # divergence is judged against this relaxed phase's gaps only
                best = math.inf
            elif grace:
                # the gap jumps when relaxing starts or omega grows; the
                # windows of that transient are not compared with r
                grace -= 1
            elif window_rate >= rate:
                # relaxing does not beat the plain sweeps it was tuned on:
                # plain sweeps, whose rate is measured again after a warm-up
                # window (against an infinite gap)
                omega, relaxing, window_gap = 1.0, False, math.inf
            elif window_rate > omega - 1.0:
                # slower than omega allows: the plain rate has slowed since
                # it was measured
                faster = _relaxation_factor(_plain_rate(window_rate, omega))
                if omega < faster < _OMEGA_MAX:
                    omega = faster
                    grace = _grace_windows(omega, window)
        row, prev_row = prev_row, row
        # a row whose Kv underflowed to 0 has lost its mass for good: its
        # scaling stays 0 rather than turning into inf * 0
        _scaling(mu0, Kv, out=u_hat)
        if rho is not None:
            u_hat **= damping
            u_hat *= shift
        if relaxing:
            _relax(u, u_hat, omega)
        else:
            np.copyto(u, u_hat)
        if not (
            _in_range(u, kernel.absorb_bound) and _in_range(v, kernel.absorb_bound)
        ):
            bound = _DIVERGENCE * kernel.absorb_bound
            if relaxing and not (_in_range(u, bound) and _in_range(v, bound)):
                # a relaxed scaling that overshot the absorption bounds
                # this far, or is not finite, diverges too, and absorbing it
                # could overflow the kernel: keep this sweep's plain updates,
                # and measure the rate again on a longer window
                omega, relaxing, window_gap = 1.0, False, math.inf
                window, window_end = _lengthened(window, iterations)
                np.copyto(u, u_hat)
                np.copyto(v, v_hat)
            kept = u > 0
            a[kept] += np.log(u[kept])
            kernel.absorb(u, v)
            # a relaxed update reads the previous scalings, which are now
            # part of K
            u.fill(1.0)
            v.fill(1.0)
        if rho is not None:
            # translate the potentials: a + t with b - t leaves K, u and v,
            # and so the plan, as they are; shift follows a, absorbed or not
            a += _translation(a, u, eps / rho, mu0, diff)
            np.multiply(a, damping - 1.0, out=shift)
            np.exp(shift, out=shift)
    # refit the target scaling, so the plan's column marginal is exact even
    # when max_iter ran out after a source update
    _target_scaling(K, u, mu1, Ktu, out=v)
    K *= u[:, None]
    K *= v
    return TransportPlan(
        coupling=K,
        converged=converged,
        iterations=iterations,
        epsilon=eps,
        gap=gap,
        omega=omega,
    )


def sinkhorn_balanced(
    C: np.ndarray, cfg: SolverConfig, *, overwrite_cost: bool = False
) -> TransportPlan:
    """Entropy-regularized OT with both marginal constraints hard.

    On ``converged=True`` the returned plan violates each uniform marginal
    by at most ``cfg.tol`` in L1 (the target one by construction of the
    final update), whether or not the sweeps before were over-relaxed.
    Non-convergence within ``max_iter`` returns the last iterate with
    ``converged=False``; the caller decides.

    With ``overwrite_cost`` the coupling is materialized into the buffer of
    ``C``, which saves a second float64 matrix (see
    :func:`dense_solve_bytes` for the rest); ``C`` is destroyed.
    """
    C = _validate_cost(C)
    cfg = cfg.resolved(C)
    return _sinkhorn(C, cfg.epsilon, None, cfg.max_iter, cfg.tol, overwrite_cost)


def sinkhorn_unbalanced(
    C: np.ndarray, cfg: SolverConfig, *, overwrite_cost: bool = False
) -> TransportPlan:
    """Semi-relaxed unbalanced OT: hard target marginal, KL-penalized source.

    The source scaling update is damped by ``rho / (rho + epsilon)``, which
    is exactly the generalized-Sinkhorn update for the objective in the
    module docstring. The returned plan's column marginal equals the
    uniform target marginal (to rounding); its row marginal is free, and
    its deviation from uniform is the detected mass creation/destruction.

    Convergence requires the L1 drift of the row marginal between
    successive sweeps to fall below ``cfg.tol``; stopping on the row
    marginal rather than on the raw potentials matters because the
    constant-offset mode of the potentials is invisible in the plan and
    settles very slowly for large rho. Sweeps are over-relaxed once their
    rate is measured, and the potentials are translated to their optimal
    offset after each source update, so that the drift follows the plan
    (see :func:`_sinkhorn`).
    """
    C = _validate_cost(C)
    cfg = cfg.resolved(C)
    return _sinkhorn(C, cfg.epsilon, cfg.rho, cfg.max_iter, cfg.tol, overwrite_cost)


def barycentric_projection(
    plan: TransportPlan | np.ndarray,
    X0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Project the source points onto the target support through the plan.

    Each target atom j maps to the coupling-weighted mean of the source
    points, ``sum_i P[i,j] X0[i] / sum_i P[i,j]``. Targets whose column
    mass is at or below ``MASS_FLOOR_FRACTION / n1`` (a 0.1% sliver of a
    uniform target atom) are unreached: their projection row is NaN, the
    one mark of an unreached target that callers read.

    Returns ``(projected_points, column_mass)``.
    """
    P = plan.coupling if isinstance(plan, TransportPlan) else np.asarray(plan)
    X0 = np.asarray(X0, dtype=np.float64)
    if P.ndim != 2 or X0.ndim != 2 or P.shape[0] != X0.shape[0]:
        raise ValueError(
            f"plan with {P.shape[0]} rows does not match {X0.shape[0]} source points"
        )
    n1 = P.shape[1]
    mass = P.sum(axis=0)
    reached = mass > MASS_FLOOR_FRACTION / n1
    projected = np.full((n1, X0.shape[1]), np.nan)
    # X0.T @ P rather than P.T[reached] @ X0, which would copy the plan
    weighted = (X0.T @ P).T
    projected[reached] = weighted[reached] / mass[reached, None]
    return projected, mass
