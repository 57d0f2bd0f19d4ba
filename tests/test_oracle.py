import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cavitycluster.lattice import LatticeConfig, mode_grid
from cavitycluster.geomphase import gamma_mode, pairwise_phase
from cavitycluster import oracle

# detuned reference point: large delta keeps photon occupation far below
# the n_max=4 truncation so the echo residual is integrator-limited
DETUNED_1x2 = LatticeConfig(M=1, N=2, J=0.1, delta=20.0)


@pytest.fixture(scope="module")
def echo_1x2():
    return oracle.echo_evolve(DETUNED_1x2, 3.0, 4, 1e-9)


def factor_generators(cfg, t, n_max):
    """H(t) of every (mode, configuration) factor, as G[:, :, mode, config]."""
    ws, lam = oracle._drive(cfg)
    eye = np.eye(n_max + 1, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
    return oracle._apply_h(ws, lam, t, eye)


class TestGenerator:
    @pytest.mark.parametrize("t", [0.0, 0.37, 2.9])
    def test_hermitian(self, t):
        G = factor_generators(DETUNED_1x2, t, 3)
        assert np.max(np.abs(G - np.conj(np.swapaxes(G, 0, 1)))) < 1e-14

    def test_zero_coupling(self):
        cfg = LatticeConfig(M=1, N=2, J=0.1, delta=1.0, g=1e-300)
        G = factor_generators(cfg, 0.5, 2)
        assert np.max(np.abs(G)) < 1e-290

    def test_single_cavity_structure(self):
        # 1x1 array: configuration |+x> sees g (e^{-i w t} a + e^{i w t} a^dag)
        # and |-x> its negative, w = delta + 4J
        cfg = LatticeConfig(M=1, N=1, J=0.25, delta=1.0, g=0.7)
        w = 2.0
        t = 0.43
        n_max = 3
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        want = 0.7 * np.exp(-1j * w * t) * a + 0.7 * np.exp(1j * w * t) * a.T
        got = factor_generators(cfg, t, n_max)
        assert np.max(np.abs(got[:, :, 0, 0] - want)) < 1e-13
        assert np.max(np.abs(got[:, :, 0, 1] + want)) < 1e-13

    def test_dimension_cap(self):
        # a lattice over the site cap and an n_max over the cap are both
        # refused by the size check, before the field block exists; the cap
        # counts the (n_max+1)^2 propagator, so 2x2 fits n_max = 54, not 60
        cfg = LatticeConfig(M=2, N=2, J=0.1)
        assert oracle.total_dimension(cfg, 54) <= oracle.MAX_TOTAL_DIMENSION
        assert oracle.total_dimension(cfg, 60) == 16 * 4 * 61**2 > oracle.MAX_TOTAL_DIMENSION
        for M, N, n_max in ((2, 3, 2), (2, 2, 60), (2, 2, 3200)):
            cfg = LatticeConfig(M=M, N=N, J=0.1)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError):
                    oracle.echo_evolve(cfg, 1.0, n_max, 1e-9)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000


def rk4_step_loop(ws, lam, tau, block, steps):
    """`steps` fixed RK4 steps of H(t) from t = 0, one Python step at a time:
    the reference that the oracle's matrix-power form must reproduce."""
    dt = tau / steps
    psi = block.copy()
    for i in range(steps):
        t = i * dt
        k1 = -1j * oracle._apply_h(ws, lam, t, psi)
        k2 = -1j * oracle._apply_h(ws, lam, t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = -1j * oracle._apply_h(ws, lam, t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = -1j * oracle._apply_h(ws, lam, t + dt, psi + dt * k3)
        psi += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


class TestIntegrator:
    @pytest.mark.parametrize("block_kind", ["vacuum", "identity"])
    @pytest.mark.parametrize(
        "cfg,n_max,tau,steps",
        [
            (LatticeConfig(M=2, N=2, J=0.1, delta=20.0), 4, 3.0, 4096),
            (LatticeConfig(M=1, N=2, J=0.1, delta=0.0), 30, 1.5, 1024),
        ],
        ids=["2x2-delta20-t0=0", "1x2-delta0-t0=0"],
    )
    def test_power_form_matches_step_loop(self, cfg, n_max, tau, steps, block_kind):
        ws, lam = oracle._drive(cfg)
        if block_kind == "vacuum":
            block = np.zeros((n_max + 1,) + lam.shape, dtype=complex)
            block[0] = 1.0
        else:  # one propagator column per Fock state: an extra axis
            block = np.eye(n_max + 1, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
        got = oracle._rk4_run(ws, lam, tau, block, steps)
        want = rk4_step_loop(ws, lam, tau, block, steps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-11

    def test_tau_zero_identity(self):
        ws, lam = oracle._drive(DETUNED_1x2)
        block = np.random.default_rng(0).normal(size=(3,) + lam.shape) + 0j
        out, steps, err = oracle._integrate_block(ws, lam, 1.0, 0.0, block, 1e-9)
        assert np.array_equal(out, block) and out is not block
        assert steps == 0 and err == 0.0

    def test_unitarity(self):
        # fed the identity, every (mode, configuration) factor's propagator
        # comes back unitary
        cfg = LatticeConfig(M=1, N=1, J=0.25, delta=1.0, g=0.3)
        ws, lam = oracle._drive(cfg)
        eye = np.eye(11, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
        U, _, _ = oracle._integrate_block(ws, lam, cfg.g, 1.3, eye, 1e-10)
        for c in range(lam.shape[1]):
            u = U[:, :, 0, c]
            assert np.max(np.abs(u.conj().T @ u - np.eye(11))) < 1e-9

    def test_closed_loop_phase_matches_mode_sum(self):
        # one full drive period: the field returns to vacuum and each sigma_x
        # configuration picks up exactly the accumulated per-mode phase
        cfg = LatticeConfig(M=1, N=1, J=0.25, delta=1.0, g=0.3)  # omega = 2
        tau = math.pi  # omega tau = 2 pi
        ws, lam = oracle._drive(cfg)
        vac = np.zeros((13,) + lam.shape, dtype=complex)
        vac[0] = 1.0
        out, _, _ = oracle._integrate_block(ws, lam, cfg.g, tau, vac, 1e-10)
        amp = out[0, 0, :]
        assert np.abs(amp) ** 2 == pytest.approx(np.ones(2), abs=1e-9)
        assert np.angle(amp) == pytest.approx(np.full(2, gamma_mode(cfg, mode_grid(cfg)[2], tau).sum()), abs=1e-8)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            oracle.echo_evolve(DETUNED_1x2, 1.0, 2, 0.0)

    @pytest.mark.parametrize("tolerance", [-1e-9, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # NaN would otherwise double the step count until the step budget
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            oracle.echo_evolve(DETUNED_1x2, 1.0, 2, tolerance)


def dense_echo_vacuum(cfg, tau, n_max):
    """Vacuum diagonal of S_z U(tau) S_z U(tau) on sigma_x basis states,
    from the unfactorized joint Hamiltonian

        H(t) = sum_m e^{-i w_m t} (g/sqrt(MN) J_X(m)^dag kron a_m) + h.c.

    on qubits x the joint Fock space, integrated with DOP853.  Shares no
    code with the oracle's factorized RK4 path.
    """
    nq = cfg.n_sites
    dimf = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, dimf)), 1)
    pref = cfg.g / math.sqrt(nq)
    terms = []
    for i, w in enumerate(mode_grid(cfg)[2]):
        a_m = reduce(np.kron, [a if j == i else np.eye(dimf) for j in range(nq)])
        jxd = oracle.collective_x_operator(cfg, *divmod(i, cfg.N)).conj().T
        terms.append((w, np.kron(pref * jxd, a_m)))

    def rhs(t, y):
        h = sum(np.exp(-1j * w * t) * c + np.exp(1j * w * t) * c.conj().T for w, c in terms)
        return (-1j * h @ y.reshape(h.shape[0], -1)).ravel()

    def propagate(psi):
        sol = solve_ivp(rhs, (0.0, tau), psi.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success
        return sol.y[:, -1].reshape(psi.shape)

    hadamard = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)] * nq)
    vacuum = np.zeros((dimf**nq, 1), dtype=complex)
    vacuum[0] = 1.0
    start = np.kron(hadamard, vacuum)  # column c: x-configuration c x vacuum
    sz = np.kron(oracle.sz_operator(cfg), np.eye(dimf**nq))
    psi = sz @ propagate(sz @ propagate(start))
    return np.diag(start.conj().T @ psi)


def test_factorization_matches_dense_joint_integration(echo_1x2):
    want = dense_echo_vacuum(DETUNED_1x2, 3.0, 4)
    assert np.max(np.abs(echo_1x2.vacuum - want)) < 1e-9


class TestEchoEvolve:
    def test_residual_cancellation(self, echo_1x2):
        assert echo_1x2.residual_excitation < 1e-8

    def test_phase_matches_mode_sum(self, echo_1x2):
        got = oracle.extract_pair_phase(echo_1x2, (0, 0), (0, 1))
        want = pairwise_phase(DETUNED_1x2, 3.0, 0, 1)
        assert abs(got - want) < 1e-6

    def test_zero_detuning_with_zero_mode(self):
        # delta=0 on 1x2 has an exact zero mode whose displacement grows
        # linearly; a reduced coupling keeps it inside the truncation
        cfg = LatticeConfig(M=1, N=2, J=0.1, delta=0.0, g=0.3)
        rep = oracle.echo_evolve(cfg, 3.0, 14, 1e-9)
        assert rep.residual_excitation < 1e-8
        got = oracle.extract_pair_phase(rep, (0, 0), (0, 1))
        assert abs(got - pairwise_phase(cfg, 3.0, 0, 1)) < 1e-6

    def test_no_time_reset_breaks_echo(self):
        # a second interval that carries on from t = tau instead of restarting
        # at t = 0 sees the drive phase-shifted by e^{-i omega tau}, and the
        # displacements no longer cancel
        ws, lam = oracle._drive(DETUNED_1x2)
        block = np.zeros((5,) + lam.shape, dtype=complex)
        block[0] = 1.0
        psi, _, _ = oracle._integrate_block(ws, lam, DETUNED_1x2.g, 3.0, block, 1e-8)
        late = lam[:, ::-1] * np.exp(-1j * ws * 3.0)[:, None]
        psi, _, _ = oracle._integrate_block(ws, late, DETUNED_1x2.g, 3.0, psi, 1e-8)
        vacuum = np.prod(psi[0], axis=0)
        assert np.max(np.abs(1.0 - np.abs(vacuum) ** 2)) > 1e-3

    def test_truncation_robustness(self, echo_1x2):
        g4 = oracle.extract_pair_phase(echo_1x2, (0, 0), (0, 1))
        rep8 = oracle.echo_evolve(DETUNED_1x2, 3.0, 8, 1e-9)
        g8 = oracle.extract_pair_phase(rep8, (0, 0), (0, 1))
        assert abs(g8 - g4) < 1e-7

    def test_tightening_tolerance_reduces_residual(self):
        loose = oracle.echo_evolve(DETUNED_1x2, 3.0, 4, 1e-5)
        tight = oracle.echo_evolve(DETUNED_1x2, 3.0, 4, 1e-9)
        assert tight.residual_excitation <= loose.residual_excitation + 1e-12


class TestExtractPairPhase:
    def test_zero_coupling_zero_phase(self):
        cfg = LatticeConfig(M=1, N=2, J=0.1, delta=20.0, g=1e-8)
        rep = oracle.echo_evolve(cfg, 3.0, 2, 1e-9)
        assert abs(oracle.extract_pair_phase(rep, (0, 0), (0, 1))) < 1e-12

    def test_residual_gate(self):
        # at zero detuning the field is still excited after a short echo
        rep = oracle.echo_evolve(LatticeConfig(M=1, N=2, J=0.1), 3.0, 2, 1e-6)
        assert rep.residual_excitation == pytest.approx(0.3207, abs=1e-4)
        with pytest.raises(oracle.InvalidExtractionError):
            oracle.extract_pair_phase(rep, (0, 0), (0, 1))

    def test_same_site_rejected(self, echo_1x2):
        with pytest.raises(ValueError):
            oracle.extract_pair_phase(echo_1x2, (0, 0), (0, 0))


class TestIdentities:
    @pytest.mark.parametrize("M,N", [(1, 2), (1, 3), (2, 2)])
    def test_all_hold(self, M, N):
        report = oracle.check_identities(M, N)
        for name, defect in report.items():
            assert defect <= 1e-14, name

    def test_corrupted_sz_breaks_anticommutation(self, monkeypatch):
        # S_z without its sigma_z on the last site
        sz = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        monkeypatch.setattr(oracle, "sz_operator", lambda config: sz)
        report = oracle.check_identities(1, 2)
        assert report["anticommutator_sz_jx"] > 0.1
