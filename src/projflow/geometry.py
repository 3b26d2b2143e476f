"""Kähler geometry of the manifold of pure states in an action-angle chart.

An n-level pure state with nonvanishing amplitude on the last basis vector
is parametrised by coordinates x = (q_1..q_{n-1}, p_1..p_{n-1}) through

    psi(x) = (sqrt(p_1) e^{-i q_1}, ..., sqrt(p_{n-1}) e^{-i q_{n-1}},
              sqrt(1 - p_1 - ... - p_{n-1})),

so the squared amplitudes are the actions p_nu and the relative phases are
the angles q_nu.  Pulling the Fubini-Study line element back through this
embedding yields the Hermitian form

    K_ab = 4 [ <d_a psi|d_b psi> / <psi|psi>
               - <d_a psi|psi><psi|d_b psi> / <psi|psi>^2 ],

whose real part is the Riemannian metric g_ab and whose imaginary part is
the fundamental two-form Omega_ab.  The quantum symplectic structure is
omega = Omega/2 (the canonical block matrix [[0, I], [-I, 0]] in these
coordinates, so Schrödinger flow is literally Hamilton's equations), and
the complex structure is J = g^{-1} Omega, normalised so that

    J.J = -I,     J^T g J = g,     Omega = g J,     J^T Omega J = Omega.

In this chart every tensor has a closed form.  With P = diag(p), 1 the
all-ones vector and p_n = 1 - sum(p) the residual weight,

    g      = diag(4 (P - p p^T),        P^{-1} + 1 1^T / p_n),
    g^{-1} = diag((P^{-1} + 1 1^T / p_n) / 4,   P - p p^T),
    J      = [[0, 2 g^{-1}_qq], [-2 g^{-1}_pp, 0]],

so each block is a diagonal plus a rank-one term and g^{-1} acts on a
covector in O(n) (apply_g_inv); nothing is inverted or pulled back.

All functions here are pure.  Every tensor function also takes a batch of
points, a ChartPoint with a leading axis, and returns its result stacked
along that axis; the arithmetic per point is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDomainError, DegenerateGeometryError

# The chart guard in ChartPoint keeps min(p_nu, 1 - sum p) at or above this
# margin, since g and g^{-1} carry 1/p_nu and 1/(1 - sum p) entries; no
# geometry, field or embedding evaluation checks the chart domain again.
BOUNDARY_MARGIN = 1e-9
# The guard reads a single point of up to this many pairs as Python floats,
# cheaper there than numpy reductions, which win at larger m (m = 63).
FLOAT_GUARD_PAIRS = 32


def inside_chart(x) -> np.ndarray:
    """The chart guard as a predicate: True for each point of the flat
    coordinates x, shape (..., 2m) with m >= 1, that is finite with
    min(p_nu, 1 - sum p) at least BOUNDARY_MARGIN.  ChartPoint accepts x
    exactly when this holds at every point."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1] // 2
    finite = np.isfinite(x).all(axis=-1)
    # a non-finite point fails on that alone; zeroing its actions keeps
    # inf - inf out of the sum
    p = np.where(finite[..., None], x[..., m:], 0.0)
    return finite & (np.minimum(p.min(axis=-1), 1.0 - p.sum(axis=-1)) >= BOUNDARY_MARGIN)


@dataclass(frozen=True)
class ChartPoint:
    """Action-angle coordinates of a pure state inside the guarded chart, or
    of a batch of B such states.

    q:      relative phases in radians, shape (m,) or (B, m), m = n-1
            (unwrapped values allowed).
    p:      squared amplitudes, the same shape.
    p_last: the residual weight p_n = 1 - sum(p), a float or shape (B,).
    m:      the number of coordinate pairs, n - 1.

    ChartPoint(q, p) and ChartPoint.from_coords(x) both run the one chart
    guard and keep a read-only copy of the coordinates; a batch passes only
    if every one of its points does.
    """

    q: np.ndarray
    p: np.ndarray
    p_last: float = field(init=False, repr=False)
    m: int = field(init=False, repr=False)

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim > 2 or q.shape != p.shape:
            raise ChartDomainError("q and p must be arrays of equal shape, (m,) or (B, m)")
        self._guard(np.concatenate([q, p], axis=-1))

    @classmethod
    def from_coords(cls, x) -> "ChartPoint":
        """Build from flat coordinates (q-block, then p-block), shape (2m,)
        or (B, 2m)."""
        x = np.array(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] % 2:
            raise ChartDomainError("coordinates must have shape (2m,) or (B, 2m)")
        point = object.__new__(cls)
        point._guard(x)
        return point

    def _guard(self, x: np.ndarray) -> None:
        """The chart guard, inside_chart at every point of the fresh flat
        coordinates x: a non-finite entry or no pair raises
        ChartDomainError, and a p_nu or p_last below BOUNDARY_MARGIN raises
        DegenerateGeometryError with the smallest margin.  x becomes
        read-only, and so do its views q and p."""
        m = x.shape[-1] // 2
        floats = x.ndim == 1 and m <= FLOAT_GUARD_PAIRS
        if floats:
            xs = x.tolist()
            # a finite sum proves every entry finite; only one that is not needs the entry-wise test
            finite = math.isfinite(sum(xs)) or all(map(math.isfinite, xs))
        if m == 0 or not (finite if floats else np.isfinite(x).all()):
            raise ChartDomainError("coordinates must be finite, with at least one pair")
        x.setflags(write=False)
        p = x[..., m:]
        if x.ndim == 1:
            p_last = 1.0 - float(p.sum())  # numpy's pairwise sum, as at a batch
            margin = min(min(xs[m:]) if floats else float(p.min()), p_last)
        else:
            p_last = 1.0 - p.sum(axis=-1)
            margin = min(p.min(), p_last.min())
        if margin < BOUNDARY_MARGIN:
            raise DegenerateGeometryError("chart-boundary guard: margin %.3e below %.0e"
                                          % (margin, BOUNDARY_MARGIN))
        object.__setattr__(self, "q", x[..., :m])
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_last", p_last)
        object.__setattr__(self, "m", m)

    def coords(self) -> np.ndarray:
        return np.concatenate([self.q, self.p], axis=-1)

    @property
    def margin(self):
        """Distance from the open-chart boundary in the p variables, per
        point; at least BOUNDARY_MARGIN."""
        return np.minimum(self.p.min(axis=-1), self.p_last)


@dataclass(frozen=True)
class StateVector:
    """Hilbert-space amplitudes psi^alpha of a ray.

    Overall scale and phase are gauge: two vectors differing by a nonzero
    complex factor represent the same state.  The zero vector is rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if amp.ndim != 1:
            raise ValueError("amplitudes must form a vector")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if not np.any(amp):
            raise ChartDomainError("the zero vector does not represent a state")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class PointGeometry:
    """Metric and complex structure at a chart point, or stacked along a
    leading axis over a batch of points.

    g / g_inv:  Fubini-Study metric g_ab and inverse g^ab.
    j:          complex structure J^a_b (rows carry the upper index).

    The fundamental two-form is Omega = g J, and the symplectic form
    omega = Omega / 2 is the same at every point (canonical_omega).
    """

    g: np.ndarray
    g_inv: np.ndarray
    j: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]


def canonical_omega(m: int) -> np.ndarray:
    """The symplectic form omega_ab = [[0, I], [-I, 0]] of a chart with m
    pairs.  Its inverse omega^{ab}, normalised so that
    omega^{ac} omega_{bc} = delta^a_b, is the same matrix."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


def chart_amplitudes(point: ChartPoint, n: int | None = None) -> np.ndarray:
    """The amplitudes of embed(point, n), without building a StateVector;
    shape (..., n) over the point's batch axis."""
    m = point.m
    if n is not None and n != m + 1:
        raise ValueError("chart has %d pairs but an n = %d system needs %d" % (m, n, n - 1))
    amp = np.empty(point.q.shape[:-1] + (m + 1,), dtype=complex)
    amp[..., :m] = np.sqrt(point.p) * np.exp(-1j * point.q)
    amp[..., m] = np.sqrt(point.p_last)
    return amp


def embed(point: ChartPoint, n: int | None = None) -> StateVector:
    """Map a chart point to its state vector.

    The component psi^nu carries modulus sqrt(p_nu) and phase -q_nu; the
    residual amplitude sqrt(p_last) sits on the last basis vector and is
    real positive, which fixes the overall phase of the representative.
    Every ChartPoint lies inside the guarded chart, so only a pair count
    that does not match n, or a batch, raises (ValueError).
    """
    return StateVector(chart_amplitudes(point, n))


def chart_from_state(state: StateVector) -> ChartPoint:
    """Invert the embedding; the returned angles lie in [0, 2*pi).

    A normalised weight |psi^alpha|^2 below BOUNDARY_MARGIN, a vanishing
    amplitude included, fails the ChartPoint guard: DegenerateGeometryError.
    """
    amp = state.amplitudes
    weights = np.abs(amp) ** 2
    p = weights[:-1] / weights.sum()
    q = np.mod(-(np.angle(amp[:-1]) - np.angle(amp[-1])), 2.0 * np.pi)
    return ChartPoint(q, p)


def apply_g_inv(point: ChartPoint, v) -> np.ndarray:
    """Raise the index of covectors, g^{ab} v_b, in O(n) from the closed
    form of g^{-1}.  The covectors are rows along the last axis of v: (2m,)
    or (k, 2m) at a single point, (B, 2m) or (B, k, 2m) at a batch of B."""
    v = np.asarray(v, dtype=float)
    m = point.m
    p, p_last = point.p, point.p_last
    if p.ndim > 1:  # a batch: one p and p_last per point, for each of its rows
        rows = (1,) * (v.ndim - 2)
        p = p.reshape(p.shape[:1] + rows + p.shape[1:])
        p_last = p_last.reshape(p_last.shape + rows + (1,))
    vq, vp = v[..., :m], v[..., m:]
    return np.concatenate([0.25 * (vq / p + vq.sum(axis=-1, keepdims=True) / p_last),
                           p * (vp - np.vecdot(vp, p, keepdims=True))], axis=-1)


def geometry_at(point: ChartPoint) -> PointGeometry:
    """Assemble every point tensor of the chart geometry from its closed
    form, entry by entry; (B, 2m, 2m) tensors at a batch of B points."""
    p_last = np.asarray(point.p_last)[..., None, None]
    p = point.p
    m = point.m
    diag = np.arange(m)
    qq, pp = np.s_[..., :m, :m], np.s_[..., m:, m:]
    shape = p.shape[:-1] + (2 * m, 2 * m)
    outer = p[..., :, None] * p[..., None, :]
    g = np.zeros(shape)
    g_inv = np.zeros(shape)
    g[qq] = -4.0 * outer
    g[..., diag, diag] += 4.0 * p
    g[pp] = 1.0 / p_last
    g[..., m + diag, m + diag] += 1.0 / p
    g_inv[qq] = 0.25 / p_last
    g_inv[..., diag, diag] += 0.25 / p
    g_inv[pp] = -outer
    g_inv[..., m + diag, m + diag] += p
    j = np.zeros(shape)
    j[..., :m, m:] = 2.0 * g_inv[qq]
    j[..., m:, :m] = -2.0 * g_inv[pp]
    return PointGeometry(g, g_inv, j)


def nijenhuis_tensor(point: ChartPoint) -> np.ndarray:
    """Integrability obstruction of the complex structure,

        N^c_ab = J^c_d d_[a J^d_b] - J^d_[a d_|d| J^c_b] = (t_cab - t_cba) / 2,
        t_cab  = J^c_d d_a J^d_b - J^d_a d_d J^c_b,

    with coordinate partials in place of covariant derivatives (the
    combination is independent of the choice of symmetric connection).
    Returned with index layout N[..., c, a, b]; it is antisymmetric in
    (a, b) by construction.  J = [[0, A], [B, 0]] depends on p only, with
    A = (P^{-1} + 1 1^T / p_n) / 2 and B = -2 (P - p p^T), so only four
    m x m x m blocks of t are nonzero, each in closed form:

        t[q_i, p_k, q_j] = -2 (A_ik (delta_kj - p_j) - (Ap)_i delta_kj),
        t[p_i, p_k, p_j] = ((B1)_i / p_n^2 - B_ik delta_kj / p_k^2) / 2,
        t[q_c, q_i, p_b] = -t[p_i, p_c, p_b]            (B is symmetric),
        t[p_c, q_i, q_b] = 2 (B_ci (delta_cb - p_b) - p_c B_bi).

    O(dim^3) per point, with neither J nor its partials built.
    """
    m = point.m
    p = point.p
    p_last = np.asarray(point.p_last)[..., None, None]
    col, eye = p[..., :, None], np.eye(m)
    a = 0.5 * (eye / col + 1.0 / p_last)
    b = -2.0 * (eye * col - col * p[..., None, :])
    t = np.zeros(p.shape[:-1] + (2 * m,) * 3)
    t[..., :m, m:, :m] = -2.0 * (a[..., :, :, None] * (eye - p[..., None, :])[..., None, :, :]
                                 - (a @ col)[..., None] * eye)
    ppp = 0.5 * (b.sum(axis=-1)[..., :, None, None] / p_last[..., None] ** 2
                 - (b / p[..., None, :] ** 2)[..., :, :, None] * eye)
    t[..., m:, m:, m:] = ppp
    t[..., :m, :m, m:] = -ppp.swapaxes(-3, -2)
    t[..., m:, :m, :m] = 2.0 * (b[..., :, :, None] * (eye[:, None, :] - p[..., None, None, :])
                                - col[..., None] * b[..., None, :, :])
    return 0.5 * (t - t.mT)


def nijenhuis_residual(point: ChartPoint) -> float:
    """Max-norm of the Nijenhuis tensor, per point of a batch; zero up to
    roundoff on the integrable structure of the chart."""
    return np.abs(nijenhuis_tensor(point)).max(axis=(-3, -2, -1))
