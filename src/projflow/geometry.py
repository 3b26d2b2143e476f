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

All functions here are pure; evaluating them concurrently over batches of
points is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDomainError, DegenerateGeometryError

# The chart guard in ChartPoint keeps min(p_nu, 1 - sum p) at or above this
# margin, since g and g^{-1} carry 1/p_nu and 1/(1 - sum p) entries; no
# geometry, field or embedding evaluation checks the chart domain again.
BOUNDARY_MARGIN = 1e-9
NIJENHUIS_STEP = 1e-5  # coordinate step of the centred differences in nijenhuis_tensor


@dataclass(frozen=True)
class ChartPoint:
    """Action-angle coordinates of a pure state inside the guarded chart.

    q:      relative phases in radians, length n-1 (unwrapped values allowed).
    p:      squared amplitudes, length n-1.
    p_last: the residual weight p_n = 1 - sum(p).

    ChartPoint(q, p) and ChartPoint.from_coords(x) both run the one chart
    guard and keep a read-only copy of the coordinates.
    """

    q: np.ndarray
    p: np.ndarray
    p_last: float = field(init=False, repr=False)

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ChartDomainError("q and p must be 1-d arrays of equal length")
        self._guard(np.concatenate([q, p]))

    @classmethod
    def from_coords(cls, x) -> "ChartPoint":
        """Build from a flat coordinate vector (q-block, then p-block)."""
        x = np.array(x, dtype=float)
        if x.ndim != 1 or x.size % 2:
            raise ChartDomainError("coordinates must be a 1-d array of even length")
        point = object.__new__(cls)
        point._guard(x)
        return point

    def _guard(self, x: np.ndarray) -> None:
        """The chart guard.  The fresh flat coordinate vector x must be
        finite with at least one pair (else ChartDomainError), and every p_nu
        and p_last must be at least BOUNDARY_MARGIN (else
        DegenerateGeometryError).  x becomes read-only, and so do its views
        q and p."""
        m = x.size // 2
        if m == 0 or not np.isfinite(x).all():
            raise ChartDomainError("coordinates must be finite, with at least one pair")
        x.setflags(write=False)
        p = x[m:]
        p_last = 1.0 - float(p.sum())
        margin = min(float(p.min()), p_last)
        if margin < BOUNDARY_MARGIN:
            raise DegenerateGeometryError("chart-boundary guard: margin %.3e below %.0e"
                                          % (margin, BOUNDARY_MARGIN))
        object.__setattr__(self, "q", x[:m])
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_last", p_last)

    def coords(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @property
    def m(self) -> int:
        """Number of coordinate pairs, n - 1."""
        return self.q.size

    @property
    def margin(self) -> float:
        """Distance from the open-chart boundary in the p variables; at
        least BOUNDARY_MARGIN."""
        return min(float(self.p.min()), self.p_last)


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

    def norm_squared(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def normalized(self) -> np.ndarray:
        return self.amplitudes / np.sqrt(self.norm_squared())


@dataclass(frozen=True)
class PointGeometry:
    """Metric and complex structure at a single chart point.

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
        return self.g.shape[0]


def canonical_omega(m: int) -> np.ndarray:
    """The symplectic form omega_ab = [[0, I], [-I, 0]] of a chart with m
    pairs.  Its inverse omega^{ab}, normalised so that
    omega^{ac} omega_{bc} = delta^a_b, is the same matrix."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


def chart_amplitudes(point: ChartPoint, n: int | None = None) -> np.ndarray:
    """The amplitudes of embed(point, n), without building a StateVector."""
    m = point.m
    if n is not None and n != m + 1:
        raise ValueError("chart has %d pairs but an n = %d system needs %d" % (m, n, n - 1))
    amp = np.empty(m + 1, dtype=complex)
    amp[:m] = np.sqrt(point.p) * np.exp(-1j * point.q)
    amp[m] = np.sqrt(point.p_last)
    return amp


def embed(point: ChartPoint, n: int | None = None) -> StateVector:
    """Map a chart point to its state vector.

    The component psi^nu carries modulus sqrt(p_nu) and phase -q_nu; the
    residual amplitude sqrt(p_last) sits on the last basis vector and is
    real positive, which fixes the overall phase of the representative.
    Every ChartPoint lies inside the guarded chart, so only a pair count
    that does not match n raises (ValueError).
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
    """Raise the index of a covector, g^{ab} v_b, in O(n) from the closed
    form of g^{-1}.  A matrix argument is treated column by column."""
    v = np.asarray(v, dtype=float)
    m = point.m
    p = point.p.reshape((m,) + (1,) * (v.ndim - 1))
    vq, vp = v[:m], v[m:]
    out = np.empty_like(v)
    out[:m] = 0.25 * (vq / p + vq.sum(axis=0) / point.p_last)
    out[m:] = p * (vp - point.p @ vp)
    return out


def geometry_at(point: ChartPoint) -> PointGeometry:
    """Assemble every point tensor of the chart geometry from its closed
    form, entry by entry."""
    p_last = point.p_last
    p = point.p
    m = point.m
    diag = np.arange(m)
    qq, pp = np.s_[:m, :m], np.s_[m:, m:]
    g = np.zeros((2 * m, 2 * m))
    g_inv = np.zeros((2 * m, 2 * m))
    g[qq] = -4.0 * np.multiply.outer(p, p)
    g[diag, diag] += 4.0 * p
    g[pp] = 1.0 / p_last
    g[m + diag, m + diag] += 1.0 / p
    g_inv[qq] = 0.25 / p_last
    g_inv[diag, diag] += 0.25 / p
    g_inv[pp] = -np.multiply.outer(p, p)
    g_inv[m + diag, m + diag] += p
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = 2.0 * g_inv[qq]
    j[m:, :m] = -2.0 * g_inv[pp]
    return PointGeometry(g, g_inv, j)


def nijenhuis_tensor(point: ChartPoint) -> np.ndarray:
    """Discretised integrability obstruction of the complex structure,

        N^c_ab = J^c_d d_[a J^d_b] - J^d_[a d_|d| J^c_b],

    with coordinate partials in place of covariant derivatives (the
    combination is independent of the choice of symmetric connection).
    Returned with index layout N[c, a, b]; it is antisymmetric in (a, b)
    by construction.  The finite-difference stencil point +- NIJENHUIS_STEP
    along every coordinate must stay inside the guarded chart.
    """
    dim = 2 * point.m
    x0 = point.coords()
    dj = np.empty((dim, dim, dim))
    for a in range(dim):
        xp = x0.copy()
        xm = x0.copy()
        xp[a] += NIJENHUIS_STEP
        xm[a] -= NIJENHUIS_STEP
        jp = geometry_at(ChartPoint.from_coords(xp)).j
        jm = geometry_at(ChartPoint.from_coords(xm)).j
        dj[a] = (jp - jm) / (2.0 * NIJENHUIS_STEP)
    j = geometry_at(point).j
    t1 = np.einsum("cd,adb->cab", j, dj)
    t2 = np.einsum("da,dcb->cab", j, dj)
    return 0.5 * (t1 - t1.transpose(0, 2, 1)) - 0.5 * (t2 - t2.transpose(0, 2, 1))


def nijenhuis_residual(point: ChartPoint) -> float:
    """Max-norm of the discretised Nijenhuis tensor; approximately zero
    (up to O(NIJENHUIS_STEP^2) finite-difference error) on an integrable
    structure."""
    return float(np.abs(nijenhuis_tensor(point)).max())

