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
# the n_max=4 truncation, so the echo residual is set by the cut, not by
# the photons the drive leaves behind
DETUNED_1x2 = LatticeConfig(M=1, N=2, J=0.1, delta=20.0)


@pytest.fixture(scope="module")
def echo_1x2():
    return oracle.echo_evolve(DETUNED_1x2, 3.0, 4)


def pair_phase_reference(report, site_a, site_b):
    """The phase of one pair from its four vacuum amplitudes, one product at a time."""
    nq, N = report.config.n_sites, report.config.N
    sa, sb = site_a[0] * N + site_a[1], site_b[0] * N + site_b[1]

    def amp(bits_a, bits_b):
        return report.vacuum[(bits_a << (nq - 1 - sa)) | (bits_b << (nq - 1 - sb))]

    prod = amp(0, 0) * amp(1, 1) * np.conj(amp(0, 1)) * np.conj(amp(1, 0))
    return float(np.angle(prod)) / 4.0


def apply_h(ws, lam, t, psi):
    """The time-dependent H(t) applied to psi[f, ..., mode, configuration]
    (f: Fock number), written out in the lab frame."""
    coef = lam * np.exp(-1j * ws * t)[:, None]
    root = np.sqrt(np.arange(1.0, psi.shape[0])).reshape((-1,) + (1,) * (psi.ndim - 1))
    out = np.empty_like(psi)
    out[:-1] = root * coef * psi[1:]  # a
    out[-1] = 0.0
    out[1:] += root * np.conj(coef) * psi[:-1]  # a^dagger
    return out


def fft_drive(cfg):
    """Mode frequencies and the complex drive lam[m, c] = 1/sqrt(MN) FFT2 of each
    configuration's spins, the lab-frame coefficient whose modulus oracle._drive
    returns."""
    nq = cfg.n_sites
    bits = (np.arange(2**nq)[:, None] >> (nq - 1 - np.arange(nq))) & 1
    spins = (1.0 - 2.0 * bits).reshape(-1, cfg.M, cfg.N)
    return mode_grid(cfg), 1.0 / math.sqrt(nq) * np.fft.fft2(spins).reshape(-1, nq).T


def complex_generator(ws, lam, n_max):
    """Rotating-frame generator H(0) + omega f of every factor with the complex
    drive, as gen[mode, configuration, f, f'] (f: Fock number)."""
    fock = np.arange(n_max + 1)
    root = np.sqrt(fock[1:])
    gen = np.zeros(lam.shape + (fock.size, fock.size), dtype=complex)
    gen[..., fock[:-1], fock[1:]] = lam[..., None] * root  # a
    gen[..., fock[1:], fock[:-1]] = np.conj(lam)[..., None] * root  # a^dagger
    gen[..., fock, fock] = np.multiply.outer(ws, fock)[:, None]
    return gen


def complex_propagator(ws, lam, tau, n_max):
    """One drive interval's u = R(tau) V e^{-i E tau} V^dag from a complex eigh,
    as a function applying it to x[mode, configuration, f]."""
    energy, vec = np.linalg.eigh(complex_generator(ws, lam, n_max))
    phase = np.exp(-1j * tau * energy)
    rot = np.exp(1j * tau * np.multiply.outer(ws, np.arange(n_max + 1)))[:, None]

    def u(x):
        coef = phase * (x[..., None, :] @ np.conj(vec))[..., 0, :]
        return rot * (vec @ coef[..., None])[..., 0]

    return u


def complex_echo(ws, lam, tau, n_max):
    """P u P u|0> with the complex drive's propagator: the reference that the
    oracle's real gauge must reproduce."""
    u = complex_propagator(ws, lam, tau, n_max)
    parity = (-1.0) ** np.arange(n_max + 1)
    vacuum = np.zeros(lam.shape + (n_max + 1,), dtype=complex)
    vacuum[..., 0] = 1.0
    return parity * u(parity * u(vacuum))


def factor_generators(cfg, t, n_max):
    """H(t) of every (mode, configuration) factor, as G[:, :, mode, config]."""
    ws, lam = fft_drive(cfg)
    eye = np.eye(n_max + 1, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
    return apply_h(ws, lam, t, eye)


def columns(u, n_max, shape):
    """u applied to every Fock basis state, as cols[mode, configuration, f, j]."""
    eye = np.eye(n_max + 1, dtype=complex)
    return np.stack([u(np.broadcast_to(e, shape + e.shape)) for e in eye], axis=-1)


def site_sum_drive(cfg):
    """lam[m, c] = 1/sqrt(MN) conj(sum_sites e^{i(L m + K n)} x_{m,n}(c)), summed
    through an explicit (mode, site) phase matrix."""
    nq = cfg.n_sites
    L = 2.0 * np.pi * np.repeat(np.arange(cfg.M), cfg.N) / cfg.M
    K = 2.0 * np.pi * np.tile(np.arange(cfg.N), cfg.M) / cfg.N
    m_idx, n_idx = np.divmod(np.arange(nq), cfg.N)
    site_phase = np.exp(1j * (np.outer(L, m_idx) + np.outer(K, n_idx)))
    bits = (np.arange(2**nq) >> (nq - 1 - np.arange(nq))[:, None]) & 1
    return 1.0 / math.sqrt(nq) * np.conj(site_phase @ (1.0 - 2.0 * bits))


@pytest.mark.parametrize("M,N", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)])
def test_drive_is_fft_of_the_spins(M, N):
    # the FFT2 of each configuration's spins is the explicit site sum, to rounding,
    # and the oracle drives with its modulus
    cfg = LatticeConfig(M=M, N=N, J=0.1, delta=20.0)
    ws, lam = oracle._drive(cfg)
    assert ws.tobytes() == mode_grid(cfg).tobytes()
    assert lam.shape == (M * N, 2 ** (M * N)) and lam.dtype == np.float64
    assert np.max(np.abs(lam - np.abs(site_sum_drive(cfg)))) <= 1e-15
    assert np.max(np.abs(fft_drive(cfg)[1] - site_sum_drive(cfg))) <= 1e-15


class TestGenerator:
    @pytest.mark.parametrize("t", [0.0, 0.37, 2.9])
    def test_hermitian(self, t):
        G = factor_generators(DETUNED_1x2, t, 3)
        assert np.max(np.abs(G - np.conj(np.swapaxes(G, 0, 1)))) < 1e-14

    @pytest.mark.parametrize("delta", [20.0, 0.0])
    def test_rotating_frame_generator(self, delta):
        # the reference generator is Hermitian, H(0) plus omega f on the diagonal
        cfg = LatticeConfig(M=2, N=2, J=0.1, delta=delta)
        ws, lam = fft_drive(cfg)
        gen = complex_generator(ws, lam, 6)
        assert np.array_equal(gen, np.conj(np.swapaxes(gen, -1, -2)))
        h0 = np.moveaxis(factor_generators(cfg, 0.0, 6), (0, 1), (-2, -1))
        assert np.max(np.abs(gen - h0 - np.diag(np.arange(7.0)) * ws[:, None, None, None])) < 1e-15

    @pytest.mark.parametrize("delta", [20.0, 0.0])
    @pytest.mark.parametrize("M,N", [(2, 2), (1, 3), (1, 4)])
    def test_gauge_makes_generator_real(self, delta, M, N):
        # with lambda = |lambda| e^{i theta}, e^{i theta f} maps the reference
        # generator to the real omega f + |lambda| (a + a^dag) the oracle uses
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        ws, lam = fft_drive(cfg)
        gauge = np.exp(1j * np.multiply.outer(np.angle(lam), np.arange(7)))
        real = gauge[..., :, None] * complex_generator(ws, lam, 6) * np.conj(gauge)[..., None, :]
        ws, strength = oracle._drive(cfg)
        rise = np.diag(np.sqrt(np.arange(1.0, 7)), 1)
        want = np.diag(np.arange(7.0)) * ws[:, None, None, None] + strength[..., None, None] * (rise + rise.T)
        assert np.max(np.abs(real - want)) < 1e-15 * np.max(np.abs(want))

    def test_zero_coupling(self):
        # a coupling 1e-100 of the detuning (J = 0.1, delta = 1 and t = 0.5 at
        # g = 1e-100, in units of g): the generator, in units of g too, stays
        # the drive's own size, sqrt(f) |lambda| <= 2 on 1x2 at n_max = 2
        cfg = LatticeConfig(M=1, N=2, J=1e99, delta=1e100)
        G = factor_generators(cfg, 5e-101, 2)
        assert np.max(np.abs(G)) == pytest.approx(2.0, rel=1e-15)

    def test_single_cavity_structure(self):
        # 1x1 array: configuration |+x> sees e^{-i w t} a + e^{i w t} a^dag
        # and |-x> its negative, w = delta + 4J; J = 0.25, delta = 1 and
        # t = 0.43 of a coupling 0.7, in units of that coupling
        cfg = LatticeConfig(M=1, N=1, J=0.25 / 0.7, delta=1.0 / 0.7)
        w = 2.0 / 0.7
        t = 0.43 * 0.7
        n_max = 3
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        want = np.exp(-1j * w * t) * a + np.exp(1j * w * t) * a.T
        got = factor_generators(cfg, t, n_max)
        assert np.max(np.abs(got[:, :, 0, 0] - want)) < 1e-13
        assert np.max(np.abs(got[:, :, 0, 1] + want)) < 1e-13

    def test_dimension_cap(self):
        # a lattice over the site cap and an n_max over the cap are both
        # refused by the size check, before the field block exists; the cap
        # counts the (n_max+1)^2 generator, so 2x2 fits n_max = 54, not 60
        cfg = LatticeConfig(M=2, N=2, J=0.1)
        assert oracle.total_dimension(cfg, 54) <= oracle.MAX_TOTAL_DIMENSION
        assert oracle.total_dimension(cfg, 60) == 16 * 4 * 61**2 > oracle.MAX_TOTAL_DIMENSION
        for M, N, n_max in ((2, 3, 2), (2, 2, 60), (2, 2, 3200)):
            cfg = LatticeConfig(M=M, N=N, J=0.1)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError):
                    oracle.echo_evolve(cfg, 1.0, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000


def rk4_step_loop(ws, lam, tau, block, steps):
    """`steps` fixed RK4 steps of the lab-frame H(t) from t = 0, one Python
    step at a time: an independent reference for the exact propagator."""
    dt = tau / steps
    psi = block.copy()
    for i in range(steps):
        t = i * dt
        k1 = -1j * apply_h(ws, lam, t, psi)
        k2 = -1j * apply_h(ws, lam, t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = -1j * apply_h(ws, lam, t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = -1j * apply_h(ws, lam, t + dt, psi + dt * k3)
        psi += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


# RK4 step counts at which the reference is within 1e-10 of the exact echo
ECHO_CASES = pytest.mark.parametrize(
    "cfg,n_max,tau,steps",
    [
        (LatticeConfig(M=2, N=2, J=0.1, delta=20.0), 4, 3.0, 8192),
        (LatticeConfig(M=1, N=2, J=0.1, delta=0.0), 30, 1.5, 1024),
    ],
    ids=["2x2-delta20", "1x2-delta0"],
)


class TestIntegrator:
    @pytest.mark.parametrize("block_kind", ["vacuum", "identity"])
    @pytest.mark.parametrize(
        "cfg,n_max,tau,steps",
        [
            (LatticeConfig(M=2, N=2, J=0.1, delta=20.0), 4, 3.0, 4096),
            (LatticeConfig(M=1, N=2, J=0.1, delta=0.0), 30, 1.5, 2048),
        ],
        ids=["2x2-delta20-t0=0", "1x2-delta0-t0=0"],
    )
    def test_power_form_matches_step_loop(self, cfg, n_max, tau, steps, block_kind):
        # the reference's one drive interval u, in its eigen form, against the RK4
        # loop; the bound is the loop's own step error on the highest Fock columns
        ws, lam = fft_drive(cfg)
        eye = np.eye(n_max + 1, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
        # the column the echo starts from, or one column per Fock state
        block = eye[:, :1] if block_kind == "vacuum" else eye
        want = rk4_step_loop(ws, lam, tau, block, steps)
        got = columns(complex_propagator(ws, lam, tau, n_max), n_max, lam.shape)
        got = np.moveaxis(got[..., : block.shape[1]], (-2, -1), (0, 1))
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("M,N", [(1, 2), (1, 3), (2, 2)])
    @pytest.mark.parametrize("delta", [20.0, 0.0])
    def test_complement_negates_drive(self, M, N, delta):
        # S_z sends configuration c to ~c, whose drive is -lambda, of the same strength
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        _, lam = fft_drive(cfg)
        assert np.array_equal(lam[:, ::-1], -lam)
        _, strength = oracle._drive(cfg)
        assert np.array_equal(strength[:, ::-1], strength)

    @ECHO_CASES
    def test_negated_drive_is_parity_conjugate(self, cfg, n_max, tau, steps):
        # P = (-1)^f maps a to -a, so the negated drive's u is P u P
        ws, lam = fft_drive(cfg)
        parity = (-1.0) ** np.arange(n_max + 1)
        u = columns(complex_propagator(ws, lam, tau, n_max), n_max, lam.shape)
        flipped = columns(complex_propagator(ws, -lam, tau, n_max), n_max, lam.shape)
        assert np.max(np.abs(flipped - parity[:, None] * u * parity)) < 1e-13

    @ECHO_CASES
    def test_echo_matches_two_step_loops(self, cfg, n_max, tau, steps):
        # the reference runs both intervals with no parity argument: the
        # second with the complemented configurations' drive, -|lambda| in the
        # gauge of the first
        ws, lam = oracle._drive(cfg)
        vac = np.zeros((n_max + 1,) + lam.shape, dtype=complex)
        vac[0] = 1.0
        want = rk4_step_loop(ws, -lam, tau, rk4_step_loop(ws, lam, tau, vac, steps), steps)
        got = np.moveaxis(oracle._echo(ws, lam, tau, n_max), -1, 0)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_tau_zero_identity(self):
        rep = oracle.echo_evolve(DETUNED_1x2, 0.0, 2)
        assert np.max(np.abs(rep.vacuum - 1.0)) <= 1e-15
        assert rep.steps == 0

    def test_unitarity(self):
        # every (mode, configuration) factor's reference propagator is unitary
        cfg = LatticeConfig(M=1, N=1, J=0.25 / 0.3, delta=1.0 / 0.3)
        ws, lam = fft_drive(cfg)
        u = columns(complex_propagator(ws, lam, 1.3 * 0.3, 10), 10, lam.shape)
        for c in range(lam.shape[1]):
            assert np.max(np.abs(u[0, c].conj().T @ u[0, c] - np.eye(11))) < 1e-13

    def test_closed_loop_phase_matches_mode_sum(self):
        # one full drive period per interval: each loop closes, the field returns
        # to vacuum and each sigma_x configuration picks up the accumulated
        # per-mode phase twice
        cfg = LatticeConfig(M=1, N=1, J=0.25 / 0.3, delta=1.0 / 0.3)  # omega = 2 / 0.3
        tau = 0.3 * math.pi  # omega tau = 2 pi
        ws, lam = oracle._drive(cfg)
        amp = oracle._echo(ws, lam, tau, 12)[0, :, 0]
        assert np.abs(amp) ** 2 == pytest.approx(np.ones(2), abs=1e-9)
        want = 2.0 * gamma_mode(cfg, mode_grid(cfg), tau).sum()
        assert np.angle(amp) == pytest.approx(np.full(2, want), abs=1e-8)

    def test_error_estimate_within_tolerance(self):
        # the norm defect is rounding, far below the default [oracle] tolerance
        cfg = LatticeConfig(M=1, N=3, J=0.1, delta=0.0)
        rep = oracle.echo_evolve(cfg, 1.5, 30)
        assert rep.error_estimate < 1e-12


@pytest.mark.parametrize("M,N", [(1, 2), (2, 1), (1, 3), (2, 2), (1, 4)])
@pytest.mark.parametrize("delta,tau,n_max", [(20.0, 3.0, 4), (0.0, 1.5, 30), (0.0, 3.0, 12)])
def test_echo_matches_complex_reference(M, N, delta, tau, n_max, monkeypatch):
    # the real |lambda| echo reports what the complex drive's echo reports, and
    # bit for bit where the FFT of the spins is already real
    cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
    got = oracle.echo_evolve(cfg, tau, n_max)
    monkeypatch.setattr(oracle, "_drive", fft_drive)
    monkeypatch.setattr(oracle, "_echo", complex_echo)
    want = oracle.echo_evolve(cfg, tau, n_max)
    assert np.max(np.abs(got.vacuum - want.vacuum)) <= 1e-14
    for name in ("residual_excitation", "error_estimate", "truncation_estimate"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14, name
    if (M, N) in [(1, 2), (2, 1), (2, 2)]:
        assert got.vacuum.tobytes() == want.vacuum.tobytes()
        assert (got.residual_excitation, got.error_estimate, got.truncation_estimate) == (
            want.residual_excitation, want.error_estimate, want.truncation_estimate)


def dense_echo_vacuum(cfg, tau, n_max):
    """Vacuum diagonal of S_z U(tau) S_z U(tau) on sigma_x basis states,
    from the unfactorized joint Hamiltonian

        H(t) = sum_m e^{-i w_m t} (1/sqrt(MN) J_X(m)^dag kron a_m) + h.c.

    on qubits x the joint Fock space, integrated with DOP853.  Shares no
    code with the oracle's factorized propagator.
    """
    nq = cfg.n_sites
    dimf = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, dimf)), 1)
    pref = 1.0 / math.sqrt(nq)
    terms = []
    for i, w in enumerate(mode_grid(cfg)):
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
        got = oracle.extract_pair_phase(echo_1x2)[(0, 0), (0, 1)]
        want = pairwise_phase(DETUNED_1x2, 3.0, 0, 1)
        assert abs(got - want) < 1e-6

    def test_zero_detuning_with_zero_mode(self):
        # delta=0 on 1x2 has an exact zero mode whose displacement grows
        # linearly; a short interaction time (g tau = 0.9) keeps it inside the truncation
        cfg = LatticeConfig(M=1, N=2, J=0.1 / 0.3, delta=0.0)
        rep = oracle.echo_evolve(cfg, 0.9, 14)
        assert rep.residual_excitation < 1e-8
        got = oracle.extract_pair_phase(rep)[(0, 0), (0, 1)]
        assert abs(got - pairwise_phase(cfg, 0.9, 0, 1)) < 1e-6

    def test_no_time_reset_breaks_echo(self):
        # a second interval that carries on from t = tau instead of restarting
        # at t = 0 sees the lab-frame drive phase-shifted by e^{-i omega tau},
        # and the displacements no longer cancel
        ws, lam = fft_drive(DETUNED_1x2)
        vac = np.zeros((5,) + lam.shape, dtype=complex)
        vac[0] = 1.0
        first = rk4_step_loop(ws, lam, 3.0, vac, 1024)
        late = lam[:, ::-1] * np.exp(-1j * ws * 3.0)[:, None]
        psi = rk4_step_loop(ws, late, 3.0, first, 1024)
        vacuum = np.prod(psi[0], axis=0)
        assert np.max(np.abs(1.0 - np.abs(vacuum) ** 2)) > 1e-3

    def test_truncation_robustness(self, echo_1x2):
        g4 = oracle.extract_pair_phase(echo_1x2)[(0, 0), (0, 1)]
        rep8 = oracle.echo_evolve(DETUNED_1x2, 3.0, 8)
        g8 = oracle.extract_pair_phase(rep8)[(0, 0), (0, 1)]
        assert abs(g8 - g4) < 1e-7

    @pytest.mark.parametrize("M,N", [(1, 2), (1, 3), (2, 2)])
    def test_truncation_estimate_bounds_fock_error(self, M, N):
        # one level less moves the vacuum amplitudes further than the cut at
        # n_max = 4 is from a cut at 12, where they have converged
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=20.0)
        rep = oracle.echo_evolve(cfg, 3.0, 4)
        fine = oracle.echo_evolve(cfg, 3.0, 12)
        assert 0.0 < np.max(np.abs(rep.vacuum - fine.vacuum)) <= rep.truncation_estimate

    def test_truncation_estimate_at_one_level(self):
        # n_max = 1 compares with the one-level space, whose vacuum stays put
        cfg = LatticeConfig(M=1, N=2, J=0.1, delta=20.0)
        rep = oracle.echo_evolve(cfg, 3.0, 1)
        assert rep.truncation_estimate == pytest.approx(np.max(np.abs(rep.vacuum - 1.0)), abs=1e-15)


class TestExtractPairPhase:
    def test_zero_coupling_zero_phase(self):
        # J = 0.1, delta = 20 and tau = 3 at a coupling 1e-8, in units of it
        cfg = LatticeConfig(M=1, N=2, J=1e7, delta=2e9)
        rep = oracle.echo_evolve(cfg, 3e-8, 2)
        assert abs(oracle.extract_pair_phase(rep)[(0, 0), (0, 1)]) < 1e-12

    def test_residual_gate(self):
        # at zero detuning the field is still excited after a short echo
        rep = oracle.echo_evolve(LatticeConfig(M=1, N=2, J=0.1), 3.0, 2)
        assert rep.residual_excitation == pytest.approx(0.3207, abs=1e-4)
        with pytest.raises(oracle.InvalidExtractionError):
            oracle.extract_pair_phase(rep)

    @pytest.mark.parametrize("delta,tau,n_max", [(20.0, 3.0, 4), (0.0, 1.5, 30)])
    @pytest.mark.parametrize("M,N", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)])
    def test_every_pair_matches_reference_bit_for_bit(self, M, N, delta, tau, n_max):
        # one call reads every row-major pair, each the per-pair product's bits
        rep = oracle.echo_evolve(LatticeConfig(M=M, N=N, J=0.1, delta=delta), tau, n_max)
        sites = [(m, n) for m in range(M) for n in range(N)]
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        got = oracle.extract_pair_phase(rep)
        assert list(got) == pairs
        assert [float.hex(got[a, b]) for a, b in pairs] == [
            float.hex(pair_phase_reference(rep, a, b)) for a, b in pairs
        ]


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
KRON_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]


def kron_sites(nq, ops):
    """Kronecker product over sites 0..nq-1, site 0 leftmost, of ops.get(s, identity)."""
    out = np.array([[1]], dtype=complex)
    for s in range(nq):
        out = np.kron(out, ops.get(s, np.eye(2)))
    return out


def kron_collective_x(cfg, l, k):
    """J_X(l, k) as a sum of phased Kronecker products sigma_x (x) identities."""
    nq = cfg.n_sites
    L = 2.0 * math.pi * l / cfg.M
    K = 2.0 * math.pi * k / cfg.N
    out = np.zeros((2**nq, 2**nq), dtype=complex)
    for s, (m, n) in enumerate((m, n) for m in range(cfg.M) for n in range(cfg.N)):
        out += np.exp(1j * (L * m + K * n)) * kron_sites(nq, {s: SIGMA_X})
    return out


def kron_sz(cfg):
    """S_z as the Kronecker product of sigma_z over every site."""
    return kron_sites(cfg.n_sites, dict.fromkeys(range(cfg.n_sites), SIGMA_Z))


def loop_identities(M, N):
    """check_identities' four defects, one mode and one pair of modes at a time."""
    cfg = LatticeConfig(M=M, N=N, J=0.1)
    sz = oracle.sz_operator(cfg)
    jxs = [oracle.collective_x_operator(cfg, l, k) for l in range(M) for k in range(N)]

    def maxabs(x):
        return float(np.max(np.abs(x)))

    mutual = 0.0
    for i, ja in enumerate(jxs):
        for jb in jxs[i + 1 :]:
            mutual = max(mutual, maxabs(ja @ jb - jb @ ja))
    return {
        "commutator_sz_jxdag_jx": max(
            maxabs(sz @ (j.conj().T @ j) - (j.conj().T @ j) @ sz) for j in jxs),
        "anticommutator_sz_jx": max(maxabs(sz @ j + j @ sz) for j in jxs),
        "anticommutator_sz_jxdag": max(maxabs(sz @ j.conj().T + j.conj().T @ sz) for j in jxs),
        "mutual_commutator_jx": mutual,
    }


@pytest.mark.parametrize("M,N", KRON_SHAPES)
class TestOperatorsMatchKronecker:
    def test_collective_x_bitwise(self, M, N):
        # each entry holds one site's phase, so the bit-flip build is exact
        cfg = LatticeConfig(M=M, N=N, J=0.1)
        for l in range(M):
            for k in range(N):
                got = oracle.collective_x_operator(cfg, l, k)
                want = kron_collective_x(cfg, l, k)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (l, k)

    def test_sz_value(self, M, N):
        cfg = LatticeConfig(M=M, N=N, J=0.1)
        assert np.array_equal(oracle.sz_operator(cfg), kron_sz(cfg))

    def test_identities_exact(self, M, N, monkeypatch):
        got = oracle.check_identities(M, N)
        monkeypatch.setattr(oracle, "sz_operator", kron_sz)
        monkeypatch.setattr(oracle, "collective_x_operator", kron_collective_x)
        assert got == oracle.check_identities(M, N)

    def test_identities_match_loops(self, M, N):
        # the batched products give each defect the bits of the per-mode and
        # per-pair loops
        got = oracle.check_identities(M, N)
        want = loop_identities(M, N)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


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
