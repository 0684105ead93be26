"""Exact single-qubit algebra.

Pauli matrices, pure states and density matrices over the {|0>, |1>} basis,
axis-angle rotations U = exp(-i gamma n.sigma / 2), the eight named benchmark
gates, and the 24-element single-qubit Clifford group with precomputed
composition and inverse tables.

All gate comparisons are up to global phase via ``phase_distance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonUnitaryInput, UnknownGateName

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_LABELS = ("I", "X", "Y", "Z")

# lowering operator |0><1|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

# largest phase distance of a unitary that clifford_index_of accepts
CLIFFORD_TOL = 1e-6


def density_of(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| as a 2x2 array."""
    return np.outer(psi, psi.conj())


def _require_unitary(u: np.ndarray, tol: float = 1e-8, what: str = "matrix"):
    if np.linalg.norm(u.conj().T @ u - I2) > tol:
        raise NonUnitaryInput(f"{what} is not unitary within {tol}")


# ---------------------------------------------------------------------------
# axis-angle gate algebra

@dataclass(frozen=True)
class GateSpec:
    """Target rotation: axis n(theta, phi) on the Bloch sphere, angle gamma.

    theta in [0, pi], phi in [-pi, pi), gamma in (-2*pi, 2*pi].
    """

    theta: float
    phi: float
    gamma: float

    def __post_init__(self):
        eps = 1e-9
        theta, phi, gamma = self.theta, self.phi, self.gamma
        if not -eps <= theta <= math.pi + eps:
            raise ValueError(f"theta={theta} outside [0, pi]")
        if not -math.pi - eps <= phi < math.pi + eps:
            raise ValueError(f"phi={phi} outside [-pi, pi)")
        if not -2.0 * math.pi - eps < gamma <= 2.0 * math.pi + eps:
            raise ValueError(f"gamma={gamma} outside (-2*pi, 2*pi]")
        # absorb floating dust at the boundaries; gamma = -2*pi is the same
        # SU(2) element as +2*pi, so the open end of the range folds over
        object.__setattr__(self, "theta", min(max(theta, 0.0), math.pi))
        if phi >= math.pi:
            object.__setattr__(self, "phi", phi - 2.0 * math.pi)
        if gamma <= -2.0 * math.pi:
            gamma += 4.0 * math.pi
        object.__setattr__(self, "gamma", min(gamma, 2.0 * math.pi))

    @property
    def axis(self) -> np.ndarray:
        """Unit rotation axis (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta))."""
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])


def axis_angle_unitary(spec: GateSpec) -> np.ndarray:
    """Special-unitary rotation cos(g/2) I - i sin(g/2) n.sigma."""
    half = 0.5 * spec.gamma
    n = spec.axis
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return math.cos(half) * I2 - 1j * math.sin(half) * ns


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate distance 1 - |Tr(U^dag V)| / 2.

    Zero iff U = exp(i a) V; equals 1 for trace-orthogonal pairs.
    """
    _require_unitary(u, what="first argument")
    _require_unitary(v, what="second argument")
    d = 1.0 - abs(np.trace(u.conj().T @ v)) / 2.0
    return max(d, 0.0)


def unitary_to_axis_angle(u: np.ndarray) -> GateSpec:
    """Invert a 2x2 unitary to (theta, phi, gamma), stripping global phase.

    Returns gamma in [0, 2*pi]; any unitary proportional to the identity maps
    to the convention (0, 0, 0).
    """
    _require_unitary(u)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.sqrt(det)
    # su = a I - i (b sx + c sy + d sz) with a, b, c, d real
    a = su.trace().real / 2.0
    b = -(su[0, 1].imag + su[1, 0].imag) / 2.0
    c = (su[1, 0].real - su[0, 1].real) / 2.0
    d = (su[1, 1].imag - su[0, 0].imag) / 2.0
    vec = np.array([b, c, d])
    s = float(np.linalg.norm(vec))
    if s < 1e-12:
        return GateSpec(0.0, 0.0, 0.0)
    gamma = 2.0 * math.atan2(s, a)
    n = vec / s
    theta = math.acos(min(max(n[2], -1.0), 1.0))
    return GateSpec(theta, math.atan2(n[1], n[0]), gamma)


# ---------------------------------------------------------------------------
# named benchmark gates

_HALF_PI = math.pi / 2.0

_NAMED_GATES = {
    "I": GateSpec(0.0, 0.0, 0.0),
    "H": GateSpec(math.pi / 4.0, 0.0, math.pi),
    "Rx(pi)": GateSpec(_HALF_PI, 0.0, math.pi),
    "Rx(pi/2)": GateSpec(_HALF_PI, 0.0, _HALF_PI),
    "Ry(pi)": GateSpec(_HALF_PI, _HALF_PI, math.pi),
    "Ry(pi/2)": GateSpec(_HALF_PI, _HALF_PI, _HALF_PI),
    "Rz(pi)": GateSpec(0.0, 0.0, math.pi),
    "Rz(pi/2)": GateSpec(0.0, 0.0, _HALF_PI),
}

GATE_NAMES = tuple(_NAMED_GATES)


def named_gate(name: str) -> GateSpec:
    """Axis-angle spec of a named gate, spelled exactly as in GATE_NAMES."""
    try:
        return _NAMED_GATES[name]
    except KeyError:
        raise UnknownGateName(
            f"unknown gate {name!r}; expected one of {', '.join(GATE_NAMES)}"
        ) from None


def axis_eigenstates(spec: GateSpec) -> tuple[np.ndarray, np.ndarray]:
    """The +1 / -1 eigenvectors of n.sigma for the spec's rotation axis.

    psi_plus = cos(t/2)|0> + sin(t/2) e^{i phi}|1> and its orthogonal partner.
    """
    half = 0.5 * spec.theta
    phase = complex(math.cos(spec.phi), math.sin(spec.phi))
    psi_plus = np.array([math.cos(half), math.sin(half) * phase])
    psi_minus = np.array([math.sin(half) * phase.conjugate(), -math.cos(half)])
    return psi_plus, psi_minus


# ---------------------------------------------------------------------------
# Clifford group

@lru_cache(maxsize=1)
def _clifford_data():
    # breadth-first expansion from the identity under quarter rotations about
    # x and y; discovery order fixes the canonical indexing (element 0 = I).
    gens = [
        GateSpec(_HALF_PI, 0.0, _HALF_PI),        # Rx(+pi/2)
        GateSpec(_HALF_PI, 0.0, -_HALF_PI),       # Rx(-pi/2)
        GateSpec(_HALF_PI, _HALF_PI, _HALF_PI),   # Ry(+pi/2)
        GateSpec(_HALF_PI, _HALF_PI, -_HALF_PI),  # Ry(-pi/2)
    ]
    gen_mats = np.array([axis_angle_unitary(g) for g in gens])

    # phase distances 1 - |Tr(W^dag M)| / 2 of the four candidates W = G M_i
    # to every element M found so far, in one einsum; the four are distinct
    # from each other, since no two generators agree up to phase.
    # unitary_to_axis_angle checks each element for unitarity below.
    mats = [I2.copy()]
    i = 0
    while i < len(mats):
        cands = gen_mats @ mats[i]
        dist = 1.0 - abs(np.einsum("kab,gab->gk", mats, cands.conj())) / 2.0
        mats.extend(w for w, d in zip(cands, dist) if d.min() > 1e-9)
        i += 1
    if len(mats) != 24:
        raise RuntimeError(f"Clifford expansion produced {len(mats)} elements")

    specs = [unitary_to_axis_angle(m) for m in mats]
    canon = np.array([axis_angle_unitary(s) for s in specs])
    canon.setflags(write=False)

    # composition table: compose[i, j] = index of U_i @ U_j (up to phase)
    prod = np.einsum("iab,jbc->ijac", canon, canon)
    overlap = abs(np.einsum("ijab,kab->ijk", prod.conj(), canon)) / 2.0
    compose = overlap.argmax(axis=2).astype(np.intp)
    if not np.all(overlap.max(axis=2) > 1.0 - 1e-9):
        raise RuntimeError("Clifford composition table is not closed")

    inverse = (compose == 0).argmax(axis=1)  # each row holds one identity

    compose.setflags(write=False)
    inverse.setflags(write=False)
    return tuple(specs), canon, compose, inverse


def clifford_group() -> list[GateSpec]:
    """The axis-angle specs of the 24 single-qubit Cliffords in canonical
    order (element 0 = I); axis_angle_unitary gives their matrices."""
    return list(_clifford_data()[0])


def clifford_tables() -> tuple[np.ndarray, np.ndarray]:
    """(composition table, inverse table) over canonical indices."""
    return _clifford_data()[2:]


def clifford_index_of(u: np.ndarray) -> int:
    """Canonical index of a unitary that is a Clifford up to global phase."""
    _require_unitary(u)
    # phase distances 1 - |Tr(U^dag E_k)| / 2 to all 24 elements E_k at once
    canon = _clifford_data()[1]
    dists = 1.0 - abs(np.einsum("ab,kab->k", u.conj(), canon)) / 2.0
    k = int(np.argmin(dists))
    if dists[k] > CLIFFORD_TOL:
        raise ValueError(f"matrix is not a Clifford (distance {dists[k]:.3g})")
    return k

