"""Reference physics for the benchmark's output checks.

Plain numpy on the Hamiltonian matrix of the model: propagators come from a
fresh Hermitian eigensolve, never from the package's closed forms, tomogram
kernels or Monte Carlo, so a check fails when a fast path drifts from the
model. Everything is vectorized over time so that checking stays cheap next
to the jobs it checks.
"""

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
MUON_LIFETIME_NS = 2197.0


def axis_vector(name: str) -> np.ndarray:
    """CLI axis spelling (x|y|z or 'vx,vy,vz') to a unit vector."""
    v = np.array(AXES[name] if name in AXES else [float(x) for x in name.split(",")])
    return v / np.linalg.norm(v)


def muonium_initial(d_e: int) -> np.ndarray:
    """Muon spin up along z times a maximally mixed electron of dimension d_e."""
    return np.kron(np.diag([1.0, 0.0]), np.eye(d_e) / d_e).astype(complex)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix from a complex Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class Evolution:
    """rho(t) = exp(-iHt) rho0 exp(iHt) by eigendecomposition of H."""

    def __init__(self, w: np.ndarray, v: np.ndarray, rho0: np.ndarray):
        self.w, self.v = w, v
        self.d_e = rho0.shape[0] // 2
        self._rho_eig = v.conj().T @ rho0 @ v
        self._gaps = w[:, None] - w[None, :]

    @classmethod
    def of(cls, hamiltonian: np.ndarray, rho0: np.ndarray) -> "Evolution":
        w, v = np.linalg.eigh(hamiltonian)
        return cls(w, v, rho0)

    def starting_from(self, rho0: np.ndarray) -> "Evolution":
        return Evolution(self.w, self.v, rho0)

    def states(self, times) -> np.ndarray:
        """Density matrices at the given times, shape (n, d, d)."""
        t = np.asarray(times, dtype=float)[:, None, None]
        rho_eig = self._rho_eig[None] * np.exp(-1j * self._gaps[None] * t)
        return self.v[None] @ rho_eig @ self.v.conj().T[None]

    def _muon_coefficients(self):
        """(coefficients (3, d^2), frequencies (d^2,)) with
        P_a(t) = Re sum_k c_ak exp(-i omega_k t)."""
        coeffs = []
        for s in PAULI:
            s_eig = self.v.conj().T @ np.kron(s, np.eye(self.d_e)) @ self.v
            coeffs.append((self._rho_eig * s_eig.T).reshape(-1))
        return np.array(coeffs), self._gaps.reshape(-1)

    def decay_bin_polarization(self, edges) -> np.ndarray:
        """Muon Bloch vector averaged over each time bin with the decay weight
        exp(-t/tau), in closed form; shape (n_bins, 3)."""
        coeffs, omegas = self._muon_coefficients()
        rate = 1j * omegas[None, :] + 1.0 / MUON_LIFETIME_NS
        lo, hi = np.asarray(edges[:-1])[:, None], np.asarray(edges[1:])[:, None]
        integral = (np.exp(-rate * lo) - np.exp(-rate * hi)) / rate
        weight = MUON_LIFETIME_NS * (np.exp(-lo / MUON_LIFETIME_NS)
                                     - np.exp(-hi / MUON_LIFETIME_NS))
        return (integral @ coeffs.T).real / weight

    def measurements(self, times, directions) -> np.ndarray:
        """w(+1/2, n, t) of the muon, ordered time-major, direction-minor."""
        bloch = muon_bloch(self.states(times), self.d_e)
        return (0.5 + 0.5 * bloch @ np.asarray(directions).T).reshape(-1)

    def design_rank(self, times, directions) -> int:
        """Rank of the linear map from the 15 traceless two-qubit coefficients
        of rho0 to the measured values (relative threshold 1e-10)."""
        basis = [np.kron(a, b) / 2 for a in (np.eye(2), *PAULI)
                 for b in (np.eye(2), *PAULI)][1:]
        rows = [self.starting_from(np.eye(4) / 4 + g).measurements(times, directions) - 0.5
                for g in basis]
        sv = np.linalg.svd(np.array(rows).T, compute_uv=False)
        return int((sv > 1e-10 * sv[0]).sum())


def muon_bloch(rhos: np.ndarray, d_e: int) -> np.ndarray:
    """Muon Bloch vectors of muon x electron states, shape (n, 3)."""
    r = rhos.reshape(-1, 2, d_e, 2, d_e)
    mu = np.einsum("nibjb->nij", r)
    return np.stack([2 * mu[:, 0, 1].real, -2 * mu[:, 0, 1].imag,
                     (mu[:, 0, 0] - mu[:, 1, 1]).real], axis=1)


def ppt_spectra(rhos: np.ndarray, d_e: int) -> np.ndarray:
    """Eigenvalues of the partial transpose over the muon, shape (n, d)."""
    r = rhos.reshape(-1, 2, d_e, 2, d_e).transpose(0, 3, 2, 1, 4)
    d = 2 * d_e
    return np.linalg.eigvalsh(r.reshape(-1, d, d))


def positivity(spectra: np.ndarray) -> dict:
    """Elementary symmetric polynomials M2, M3, M4 of 4-level spectra, the
    measure E = |M3| + |M4| - M3 - M4 and the negativity."""
    lam = spectra
    m2 = (1 - (lam ** 2).sum(axis=1)) / 2
    m3 = np.zeros(len(lam))
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                m3 += lam[:, i] * lam[:, j] * lam[:, k]
    m4 = lam.prod(axis=1)
    return {"M2": m2, "M3": m3, "M4": m4,
            "E": np.abs(m3) + np.abs(m4) - m3 - m4,
            "negativity": negativity(spectra)}


def negativity(spectra: np.ndarray) -> np.ndarray:
    return -np.where(spectra < 0, spectra, 0.0).sum(axis=1)


def bell_maximum(rhos: np.ndarray) -> np.ndarray:
    """2 s_max(T) with T_ij = Tr[rho sigma_i x sigma_j]: the largest Bell-like
    number over all settings."""
    ops = np.array([np.kron(a, b) for a in PAULI for b in PAULI])
    t = np.einsum("nab,kba->nk", rhos, ops).real.reshape(-1, 3, 3)
    return 2 * np.linalg.svd(t, compute_uv=False)[:, 0]


def free_muonium_tomogram(m_mu, v_mu, m_e, v_e, t, omega0):
    """Individual tomogram of fresh muonium under the pure coupling,
    (1/4)[1 + m_mu nz_mu + m_e nz_e + (m_mu nz_mu - m_e nz_e) cos w0 t
    + 2 m_mu m_e (n_mu x n_e)_z sin w0 t], broadcast over all arguments."""
    cross_z = v_mu[..., 0] * v_e[..., 1] - v_mu[..., 1] * v_e[..., 0]
    return 0.25 * (1 + m_mu * v_mu[..., 2] + m_e * v_e[..., 2]
                   + (m_mu * v_mu[..., 2] - m_e * v_e[..., 2]) * np.cos(omega0 * t)
                   + 2 * m_mu * m_e * cross_z * np.sin(omega0 * t))
