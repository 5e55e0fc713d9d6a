import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from otcd import detection, solver
from otcd.chunking import ChunkingConfig, build_chunks
from otcd.detection import METHOD_BALANCED_OT, ChangeDetectionConfig, detect_changes
from otcd.solver import (
    SolverConfig,
    SolverResourceError,
    TransportPlan,
    barycentric_projection,
    cost_matrix,
    lp_exact_small,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from otcd.synth import generate_pair, six_buildings


def _log_sum_exp_sinkhorn(C, eps, rho=None, max_iter=20000, tol=1e-14):
    """Textbook log-sum-exp Sinkhorn with the damped source update, the
    reference the stabilized solver is checked against on converged plans."""
    n0, n1 = C.shape
    damping = 1.0 if rho is None else rho / (rho + eps)
    f = np.zeros(n0)
    for _ in range(max_iter):
        g = -np.log(n1) - logsumexp(f[:, None] - C / eps, axis=0)
        f_next = damping * (-np.log(n0) - logsumexp(g[None, :] - C / eps, axis=1))
        done = np.abs(f_next - f).max() <= tol
        f = f_next
        if done:
            break
    g = -np.log(n1) - logsumexp(f[:, None] - C / eps, axis=0)
    return np.exp(f[:, None] + g[None, :] - C / eps)


def _plain_sinkhorn(C, eps, tol, max_iter=20000):
    """Plain balanced Sinkhorn scaling with the solver's stop rule: the L1
    row violation of the plan whose columns are exact is at most ``tol``.
    The reference the over-relaxed solver is checked against; returns the
    plan and its sweep count."""
    n0, n1 = C.shape
    K = -C / eps
    K -= K.max(axis=1, keepdims=True)
    K -= K.max(axis=0)
    K = np.exp(K)
    u = np.ones(n0)
    for sweeps in range(1, max_iter + 1):
        v = (1.0 / n1) / (K.T @ u)
        Kv = K @ v
        if np.abs(u * Kv - 1.0 / n0).sum() <= tol:
            return u[:, None] * K * v, sweeps
        u = (1.0 / n0) / Kv
    raise AssertionError("reference Sinkhorn did not converge")


def _six_building_scene(seed):
    """The six-building scene at half the ``multi_density`` ground
    density."""
    return replace(six_buildings(seed), ground_density=2.0)


def _halo_chunk_cost(seed, chunk_id):
    """Cost matrix and epsilon of one chunk of the six-building scene, as
    ``otcd sweep --method ot --point-cap 600 --halo 4`` solves it."""
    pc0, pc1 = generate_pair(_six_building_scene(seed))
    chunk = build_chunks(pc0, pc1, ChunkingConfig(point_cap=600, halo_margin=4.0))[
        chunk_id
    ]
    C = cost_matrix(pc0.xyz[chunk.source_indices], pc1.xyz[chunk.target_indices])
    return C, SolverConfig(epsilon_rel=0.01).resolved(C).epsilon


def _acceptance_chunk(seed, chunk_id):
    """Source and target points of one chunk of the six-building scene, as
    ``otcd detect --point-cap 2500 --halo 0`` solves it: ~1150 x 340."""
    pc0, pc1 = generate_pair(_six_building_scene(seed))
    chunk = build_chunks(pc0, pc1, ChunkingConfig(point_cap=2500))[chunk_id]
    return pc0.xyz[chunk.source_indices], pc1.xyz[chunk.target_indices]


def _assert_workers_do_not_change_the_relaxed_run(cfg):
    """One and two workers give the same bits on the seed-7 six-building
    scene, and some chunk's sweeps were over-relaxed."""
    pc0, pc1 = generate_pair(_six_building_scene(seed=7))
    serial = detect_changes(pc0, pc1, cfg)
    threaded = detect_changes(pc0, pc1, replace(cfg, workers=2))
    assert serial.scores.tobytes() == threaded.scores.tobytes()
    assert any(d.omega > 1.0 for d in serial.diagnostics)
    for a, b in zip(serial.diagnostics, threaded.diagnostics):
        assert (a.iterations, a.gap, a.omega, a.mass_change) == (
            b.iterations,
            b.gap,
            b.omega,
            b.mass_change,
        )


def _uniform_violations(plan: TransportPlan) -> tuple[float, float]:
    n0, n1 = plan.coupling.shape
    row = np.abs(plan.row_marginal - 1.0 / n0).sum()
    col = np.abs(plan.col_marginal - 1.0 / n1).sum()
    return row, col


class TestCostMatrix:
    def test_coincident_points(self):
        np.testing.assert_array_equal(
            cost_matrix(np.zeros((1, 3)), np.zeros((1, 3))), [[0.0]]
        )

    def test_3_4_5_triangle(self):
        C = cost_matrix(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]]))
        np.testing.assert_allclose(C, [[25.0]])

    def test_two_by_two(self):
        C = cost_matrix(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        )
        np.testing.assert_allclose(C, [[0.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        X0, X1 = rng.normal(size=(5, 3)), rng.normal(size=(8, 3))
        t = np.array([1e5, -2e5, 3e4])
        np.testing.assert_allclose(
            cost_matrix(X0 + t, X1 + t), cost_matrix(X0, X1), rtol=1e-9, atol=1e-8
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cost_matrix(np.empty((0, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "X0, X1, match",
        [
            (np.zeros((2, 3)), np.zeros((2, 2)), "incompatible point sets"),
            (np.zeros(3), np.zeros((2, 3)), "incompatible point sets"),
            (np.array([[0.0, 0.0, np.inf]]), np.zeros((2, 3)), "finite"),
            (np.zeros((2, 3)), np.array([[np.nan, 0.0, 0.0]]), "finite"),
        ],
        ids=["columns", "1-D", "inf", "nan"],
    )
    def test_invalid_point_sets_rejected(self, X0, X1, match):
        with pytest.raises(ValueError, match=match):
            cost_matrix(X0, X1)

    def test_joint_translation_shifts_plan_and_projection(self):
        rng = np.random.default_rng(13)
        X0, X1 = rng.normal(size=(7, 3)), rng.normal(size=(9, 3))
        t = np.array([12.5, -3.0, 40.0])
        cfg = SolverConfig(epsilon=0.1, tol=1e-10)
        base = sinkhorn_balanced(cost_matrix(X0, X1), cfg)
        moved = sinkhorn_balanced(cost_matrix(X0 + t, X1 + t), cfg)
        np.testing.assert_allclose(moved.coupling, base.coupling, atol=1e-9)
        proj_base, _ = barycentric_projection(base, X0)
        proj_moved, _ = barycentric_projection(moved, X0 + t)
        np.testing.assert_allclose(proj_moved, proj_base + t, atol=1e-8)

    def test_nonnegative_despite_rounding(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3)) + 1e6
        assert (cost_matrix(X, X) >= 0).all()


class TestMemoryGuard:
    """The dense-allocation guard, on a stubbed reading of available memory:
    no test allocates an oversized matrix."""

    def test_cost_matrix_beyond_available_memory(self, monkeypatch):
        # 400x400 float64 is 1.2 MiB
        monkeypatch.setattr(solver, "_available_memory_bytes", lambda: 2**20)
        X = np.zeros((400, 3))
        with pytest.raises(SolverResourceError, match=r"GiB.* chunk point cap"):
            cost_matrix(X, X)

    def test_kernel_copy_beyond_available_memory(self, monkeypatch):
        C = cost_matrix(np.zeros((400, 3)), np.ones((400, 3)))
        monkeypatch.setattr(solver, "_available_memory_bytes", lambda: 2**20)
        with pytest.raises(SolverResourceError, match="Gibbs kernel needs"):
            sinkhorn_balanced(C, SolverConfig(epsilon=1.0))

    def test_memory_error_becomes_resource_error(self, monkeypatch):
        def refuse(shape):
            raise MemoryError(f"Unable to allocate array with shape {shape}")

        monkeypatch.setattr(solver, "_available_memory_bytes", lambda: None)
        monkeypatch.setattr(solver, "np", SimpleNamespace(empty=refuse))
        with pytest.raises(SolverResourceError, match="Unable to allocate") as info:
            solver._dense_matrix(3, 4, "a 3x4 matrix")
        assert info.value.__cause__ is None


class TestSolverConfig:
    def test_epsilon_xor_epsilon_rel(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1.0, epsilon_rel=0.01)
        # with neither, the relative default of otcd detect
        assert SolverConfig() == SolverConfig(epsilon_rel=0.01, rho=1000.0)
        assert SolverConfig(epsilon=1.0).epsilon_rel is None

    def test_epsilon_rel_resolves_against_median(self):
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        cfg = SolverConfig(epsilon_rel=0.1).resolved(C)
        assert cfg.epsilon == pytest.approx(0.1 * 2.5)

    def test_median_has_the_bits_of_np_median(self):
        rng = np.random.default_rng(5)
        cases = [rng.random(n) for n in (1, 2, 3, 4, 57, 58, 999, 1000)]
        # ties, also between the two middle values of an even size
        cases += [rng.integers(0, 3, n).astype(float) for n in (9, 10, 11, 12)]
        cases += [np.array([3.0, 2.0, 2.0, 1.0]), np.zeros(6), np.zeros(7)]
        for x in cases:
            before = x.copy()
            assert solver._median(x).hex() == float(np.median(x)).hex(), x
            np.testing.assert_array_equal(x, before)

    def test_all_zero_costs_resolve_to_epsilon_rel(self):
        assert SolverConfig(epsilon_rel=0.3).resolved(np.zeros((4, 5))).epsilon == 0.3

    def test_epsilon_rel_resolving_to_inf_rejected(self):
        with pytest.raises(ValueError, match="resolved to inf"):
            SolverConfig(epsilon_rel=1e10).resolved(np.full((2, 2), 1e300))

    @pytest.mark.parametrize("shape", [(800, 700), (801, 701)])
    def test_median_of_the_subsample_above_the_cell_cap(self, shape):
        # strided subsamples of 280,000 (even) and 280,751 (odd) cells
        C = np.random.default_rng(4).random(shape)
        assert C.size > solver._MEDIAN_SAMPLE_CELLS
        step = C.size // solver._MEDIAN_SAMPLE_CELLS + 1
        expected = 0.01 * float(np.median(C.ravel()[::step]))
        resolved = SolverConfig(epsilon_rel=0.01).resolved(C)
        assert resolved.epsilon.hex() == expected.hex()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1.0, tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1.0, rho=-2.0)
        for fields in (
            {"epsilon": math.nan},
            {"epsilon_rel": math.nan},
            {"epsilon": math.inf},
            {"epsilon_rel": math.inf},
            {"epsilon": 1.0, "tol": math.nan},
        ):
            with pytest.raises(ValueError, match="must be positive"):
                SolverConfig(**fields)


class TestSinkhornBalanced:
    def test_1x1_only_feasible_plan(self):
        plan = sinkhorn_balanced(np.array([[3.0]]), SolverConfig(epsilon=0.5))
        np.testing.assert_allclose(plan.coupling, [[1.0]], atol=1e-12)
        assert plan.converged

    def test_symmetric_2x2_diagonal(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.01))
        np.testing.assert_allclose(
            plan.coupling, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6
        )

    def test_cost_close_to_lp_at_small_epsilon(self):
        rng = np.random.default_rng(3)
        C = rng.random((6, 7))
        plan = sinkhorn_balanced(
            C, SolverConfig(epsilon=0.001, max_iter=4000, tol=1e-5)
        )
        entropic_cost = float((plan.coupling * C).sum())
        lp_cost, _ = lp_exact_small(C)
        assert entropic_cost <= lp_cost * 1.01

    def test_marginals_within_tol_on_convergence(self):
        rng = np.random.default_rng(4)
        C = rng.random((23, 17))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.02, tol=1e-8))
        assert plan.converged
        row, col = _uniform_violations(plan)
        assert row <= 1e-8
        assert col <= 1e-12

    def test_matches_log_sum_exp_reference(self):
        rng = np.random.default_rng(5)
        C = rng.random((9, 11))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.05, tol=1e-12))
        assert plan.converged
        reference = _log_sum_exp_sinkhorn(C, 0.05)
        np.testing.assert_allclose(plan.coupling, reference, atol=1e-9)

    def test_tiny_epsilon_gives_finite_plan_with_exact_columns(self):
        # C / epsilon reaches 1.5e4, far past where exp(-C / epsilon)
        # underflows
        rng = np.random.default_rng(6)
        C = rng.random((12, 12)) + 0.5
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=1e-4, max_iter=50))
        assert np.isfinite(plan.coupling).all()
        np.testing.assert_allclose(plan.col_marginal, np.full(12, 1 / 12), atol=1e-15)

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(7)
        C = rng.random((10, 10))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.001, max_iter=2))
        assert not plan.converged
        assert plan.iterations == 2
        assert np.isfinite(plan.coupling).all()

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_balanced(np.array([[np.nan]]), SolverConfig(epsilon=0.1))
        with pytest.raises(ValueError):
            sinkhorn_balanced(np.array([[-1.0]]), SolverConfig(epsilon=0.1))
        with pytest.raises(ValueError, match="2D"):
            sinkhorn_balanced(np.ones(3), SolverConfig(epsilon=0.1))

    def test_overwrite_cost_reuses_buffer(self):
        rng = np.random.default_rng(8)
        C = rng.random((6, 6))
        keep = sinkhorn_balanced(C.copy(), SolverConfig(epsilon=0.05))
        buf = C.copy()
        over = sinkhorn_balanced(buf, SolverConfig(epsilon=0.05), overwrite_cost=True)
        assert np.may_share_memory(over.coupling, buf)
        np.testing.assert_allclose(over.coupling, keep.coupling, atol=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_marginal_feasibility_property(self, seed):
        rng = np.random.default_rng(seed)
        C = rng.random((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.05, tol=1e-7))
        assert plan.converged
        row, col = _uniform_violations(plan)
        assert row <= 1e-7 and col <= 1e-10


class TestOverRelaxation:
    """The balanced solver over-relaxes its sweeps once the stopping gap
    contracts steadily; its converged plans must be the plain-Sinkhorn
    ones."""

    # Both plans have exact columns and rows within tol of mu0 in L1; how
    # far apart that lets them lie depends on the instance's conditioning,
    # at most 5.2 tol on these instances
    PLAN_TOL_FACTOR = 10

    def _assert_matches_plain(self, C, eps, tol):
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=eps, tol=tol, max_iter=20000))
        reference, _ = _plain_sinkhorn(C, eps, tol)
        assert plan.converged and plan.omega > 1.0
        assert plan.gap <= tol
        row, col = _uniform_violations(plan)
        assert row <= tol and col <= tol
        assert np.abs(plan.coupling - reference).sum() <= self.PLAN_TOL_FACTOR * tol

    def test_matches_plain_sinkhorn_on_criterion_2_sized_instances(self):
        # criterion 2's 200x250 unit-cost instances at an epsilon small
        # enough (0.003, not 0.01) that the solve runs past its warm-up
        for k in range(3):
            C = np.random.default_rng(2000 + k).random((200, 250))
            self._assert_matches_plain(C, 0.003, 1e-6)

    def test_matches_plain_sinkhorn_on_a_halo_chunk(self):
        C, eps = _halo_chunk_cost(seed=7, chunk_id=3)
        self._assert_matches_plain(C, eps, 1e-6)

    def test_absorbing_every_sweep_leaves_the_iteration_unchanged(self, monkeypatch):
        # a relaxed update reads the previous scalings, so absorbing them
        # into the kernel must reset both to 1
        C = np.random.default_rng(2000).random((200, 250))
        cfg = SolverConfig(epsilon=0.003, tol=1e-6)
        base = sinkhorn_balanced(C, cfg)
        monkeypatch.setattr(solver, "_ABSORB_BOUND", 1.0 + 1e-9)
        absorbed = sinkhorn_balanced(C, cfg)
        assert base.omega > 1.0 and absorbed.converged
        assert absorbed.iterations == base.iterations
        np.testing.assert_allclose(absorbed.coupling, base.coupling, rtol=0, atol=1e-12)

    def test_halo_chunk_needs_half_the_plain_sweeps(self):
        # plain sweeps, the solver before over-relaxation: 787 on this chunk;
        # relaxed from sweep 12: 86
        C, eps = _halo_chunk_cost(seed=7, chunk_id=3)
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=eps))
        assert plan.converged
        assert plan.iterations <= 95

    def test_converged_marginals_within_tol(self):
        # seed 33 ends 20 tol off its row marginal if the solve stops on a
        # relaxed sweep's gap instead of finishing with plain sweeps
        for seed in range(40):
            rng = np.random.default_rng(seed)
            C = rng.random((int(rng.integers(2, 60)), int(rng.integers(2, 60))))
            eps = float(rng.uniform(0.002, 0.02))
            cfg = SolverConfig(epsilon=eps, tol=1e-7, max_iter=3000)
            plan = sinkhorn_balanced(C, cfg)
            row, col = _uniform_violations(plan)
            assert np.isfinite(plan.coupling).all()
            assert plan.converged == (plan.gap <= 1e-7)
            if plan.converged:
                assert row <= 1e-7 and col <= 1e-7, f"seed {seed}"

    @pytest.mark.parametrize(
        "seed, shape, ends_plain",
        [
            # the gap jumps far above its best at sweep 14 and 239; relaxing
            # again on 12- and then 24-sweep windows, it converges in 764
            pytest.param(162, (15, 15), False, id="162-shape0"),
            # the gap stays moderate while the scalings overshoot the
            # absorption bounds; absorbing them would overflow the kernel.
            # It diverges on every window up to the full one, and ends on
            # plain sweeps
            pytest.param(0, (27, 12), True, id="0-shape1"),
        ],
    )
    def test_divergence_falls_back_to_plain_sweeps(
        self, monkeypatch, seed, shape, ends_plain
    ):
        # a forced omega of 1.99 relaxes from sweep 12 on; without falling
        # back to plain sweeps these instances end in non-finite values
        monkeypatch.setattr(solver, "_relaxation_factor", lambda rate: 1.99)
        monkeypatch.setattr(solver, "_OMEGA_MAX", 2.0)
        C = np.random.default_rng(seed).random(shape)
        tol = 1e-5
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=1e-3, tol=tol, max_iter=4000))
        assert np.isfinite(plan.coupling).all()
        row, _ = _uniform_violations(plan)
        assert plan.converged == (row <= tol) == (plan.gap <= tol)
        if ends_plain:
            assert plan.omega == 1.0
        else:
            assert plan.converged

    @pytest.mark.parametrize("instance", [12, 26, 35])
    def test_divergence_lengthens_the_rate_window(self, instance):
        # criterion 1's instances 12, 26 and 35 diverge while relaxed on
        # 6-sweep windows; re-measured on 12- (and 35 on 24-) sweep windows
        # they converge in 190, 370 and 175 sweeps. Ending relaxation for
        # good, or re-measuring on 6-sweep windows, leaves each of them
        # unconverged after 4000
        rng = np.random.default_rng(1000 + instance)
        C = rng.random((int(rng.integers(2, 16)), int(rng.integers(2, 16))))
        tol = 1e-5
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=1e-3, tol=tol, max_iter=4000))
        assert plan.converged
        row, col = _uniform_violations(plan)
        assert row <= tol and col <= tol

    @pytest.mark.xfail(
        strict=True,
        reason="relaxed at omega ~1.99 from a 0.9999 plain window, 4000 sweeps "
        "are not enough (ROADMAP item 5)",
    )
    @pytest.mark.parametrize("instance", [1, 41])
    def test_instances_that_converged_on_32_sweep_windows(self, instance):
        # criterion 1's instances 1 (14x10) and 41 (14x14) need 51k and 63k
        # plain sweeps. Relaxed from sweep 64 on 32-sweep windows they
        # converged in 1697 and 1185. From sweep 12 on 6-sweep windows, a
        # plain window reads a rate of 0.99991-0.99996 (omega 1.98-1.99);
        # the relaxed windows that follow stay faster than that rate but
        # slow to 0.999 per sweep, so neither the fallback nor the raise
        # helps, and 4000 sweeps end unconverged
        rng = np.random.default_rng(1000 + instance)
        C = rng.random((int(rng.integers(2, 16)), int(rng.integers(2, 16))))
        cfg = SolverConfig(epsilon=1e-3, tol=1e-5, max_iter=4000)
        assert sinkhorn_balanced(C, cfg).converged

    def test_relaxing_starts_at_sweep_12(self):
        # a 6-sweep warm-up window, then a 6-sweep window that measures the
        # rate; omega is set on the sweep that closes it
        C = np.random.default_rng(2000).random((200, 250))
        cfg = SolverConfig(epsilon=0.003, tol=1e-6)
        assert sinkhorn_balanced(C, replace(cfg, max_iter=11)).omega == 1.0
        assert sinkhorn_balanced(C, replace(cfg, max_iter=12)).omega > 1.0

    def test_relaxation_slower_than_plain_falls_back(self):
        # criterion 1's instance 24: relaxed from sweep 12, its gap shrinks
        # more slowly than plain sweeps shrank it; it falls back and
        # converges on plain sweeps in 227, where relaxing on takes 335
        rng = np.random.default_rng(1024)
        C = rng.random((int(rng.integers(2, 16)), int(rng.integers(2, 16))))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=1e-3, tol=1e-5, max_iter=4000))
        assert plan.converged and plan.omega == 1.0

    @pytest.mark.parametrize("seed", [112, 1469, 1633, 2505, 9544])
    def test_ill_conditioned_instances_converge(self, seed):
        # instances of test_marginal_feasibility_property whose plain sweeps
        # need from 15k (1469) to over 300k sweeps: 112 relaxes only after a
        # fallback and a second rate measurement, 2505 and 9544 only once
        # omega is raised past the factor of their first measured rate
        rng = np.random.default_rng(seed)
        C = rng.random((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
        plan = sinkhorn_balanced(C, SolverConfig(epsilon=0.05, tol=1e-7))
        assert plan.converged and plan.omega > 1.9
        row, col = _uniform_violations(plan)
        assert row <= 1e-7 and col <= 1e-10

    def test_worker_count_does_not_change_the_run(self):
        _assert_workers_do_not_change_the_relaxed_run(
            ChangeDetectionConfig(
                solver=SolverConfig(epsilon_rel=0.01),
                chunking=ChunkingConfig(point_cap=600, halo_margin=4.0),
                method=METHOD_BALANCED_OT,
                workers=1,
            )
        )


class TestUnbalancedOverRelaxation:
    """The unbalanced solver over-relaxes its sweeps on the same windows as
    the balanced one, and translates the potentials after each source
    update so that its drift stop rule follows the plan."""

    def test_relaxed_solve_stops_near_the_fixed_point(self):
        # rho / eps ~ 530: on this chunk plain sweeps stop 2.7e-3 m in score
        # short of the fixed point, relaxed and translated ones 1.4e-4 m
        X0, X1 = _acceptance_chunk(seed=11, chunk_id=1)
        cfg = SolverConfig(epsilon_rel=0.01, rho=1000.0)
        plan = sinkhorn_unbalanced(cost_matrix(X0, X1), cfg)
        fixed = sinkhorn_unbalanced(
            cost_matrix(X0, X1), replace(cfg, tol=1e-12, max_iter=20000)
        )
        assert plan.converged and fixed.converged
        assert plan.omega > 1.0
        scores = [
            detection.pointwise_scores(barycentric_projection(p, X0)[0], X1)
            for p in (plan, fixed)
        ]
        np.testing.assert_array_equal(np.isfinite(scores[0]), np.isfinite(scores[1]))
        reached = np.isfinite(scores[1])
        assert np.abs(scores[0][reached] - scores[1][reached]).max() <= 1e-3

    def test_acceptance_chunk_needs_under_half_the_plain_sweeps(self, monkeypatch):
        X0, X1 = _acceptance_chunk(seed=11, chunk_id=1)
        cfg = SolverConfig(epsilon_rel=0.01, rho=1000.0)
        relaxed = sinkhorn_unbalanced(cost_matrix(X0, X1), cfg)
        monkeypatch.setattr(solver, "_relaxation_factor", lambda rate: 1.0)
        plain = sinkhorn_unbalanced(cost_matrix(X0, X1), cfg)
        assert relaxed.converged and plain.converged and plain.omega == 1.0
        assert relaxed.iterations <= plain.iterations // 2

    def test_translation_is_the_optimal_offset_and_keeps_the_plan(self):
        rng = np.random.default_rng(5)
        n0, n1, eps, rho = 6, 5, 0.05, 0.3
        C = rng.random((n0, n1))
        a, b = rng.normal(0, 3, n0), rng.normal(0, 3, n1)
        u = rng.uniform(0.5, 2.0, n0)
        u[2] = 0.0  # a row without mass takes no part
        f = a + np.log(u, where=u > 0, out=np.full(n0, -np.inf))
        t = solver._translation(a.copy(), u.copy(), eps / rho, 1 / n0, np.empty(n0))
        kept = u > 0
        expected = (rho / eps) * (
            np.log(1 / n0) + logsumexp(-(eps / rho) * f[kept])
        )
        assert t == pytest.approx(expected, rel=1e-12)
        # t zeroes the derivative of the semi-relaxed dual in the offset
        total = np.exp(-(eps / rho) * (f[kept] + t)).sum() / n0
        assert total == pytest.approx(1.0, rel=1e-12)

        def plan(a, b):
            K = np.exp(-C / eps + a[:, None] + b[None, :])
            v = (1 / n1) / (u @ K)  # the target scaling, refitted
            return u[:, None] * K * v

        np.testing.assert_allclose(plan(a + t, b - t), plan(a, b), rtol=1e-12, atol=0)

    def test_translation_of_empty_rows_or_beyond_float_range_is_zero(self):
        buf = np.empty(3)
        with np.errstate(all="raise"):
            # every row has lost its mass
            assert solver._translation(np.zeros(3), np.zeros(3), 1e-3, 1 / 3, buf) == 0.0
            # rho / eps at the edge of the float range
            t = solver._translation(np.zeros(3), np.ones(3), 1e-320, 1 / 3, buf)
            assert t == 0.0
            # exp(t), and every exp(-(eps/rho) f_i) of the sum, would
            # overflow: the sum is shifted by its largest term, and the solve
            # adds t to a rather than multiplying u by exp(t)
            a = np.full(3, -1e6)
            t = solver._translation(a, np.array([1.0, 1.0, 0.0]), 1e-3, 1 / 3, buf)
            assert t == pytest.approx(1e6 + 1e3 * np.log(2 / 3), rel=1e-12)
        assert not np.isnan(buf).any()

    @pytest.mark.parametrize(
        "seed, shape",
        [
            # the drift jumps far above its best
            (0, (26, 20)),
            # the scalings overshoot the absorption bounds 1e3-fold
            (15, (28, 22)),
        ],
    )
    def test_divergence_falls_back_to_plain_sweeps(self, monkeypatch, seed, shape):
        # a forced omega of 1.99 relaxes from sweep 12 on; without falling
        # back to plain sweeps these instances end in non-finite values
        monkeypatch.setattr(solver, "_relaxation_factor", lambda rate: 1.99)
        monkeypatch.setattr(solver, "_OMEGA_MAX", 2.0)
        C = np.random.default_rng(seed).random(shape)
        tol = 1e-5
        cfg = SolverConfig(epsilon=1e-3, rho=1.0, tol=tol, max_iter=4000)
        plan = sinkhorn_unbalanced(C, cfg)
        assert np.isfinite(plan.coupling).all()
        assert plan.omega == 1.0
        assert plan.converged and plan.gap <= tol
        np.testing.assert_allclose(plan.col_marginal, 1 / shape[1], rtol=1e-12)

    @pytest.mark.parametrize("seed", [552, 676])
    def test_each_relaxed_phase_judges_divergence_by_its_own_best(
        self, monkeypatch, seed
    ):
        # the first relaxed phase brings the drift down to 3e-5 (552) or
        # 5e-5 (676) and falls back to plain sweeps at sweep 24; within its
        # first three sweeps the next phase, from sweep 49 or 37, reaches
        # drifts over 1e3 times higher (0.032, 0.097). Judged against the
        # first phase's best, that counts as a
        # divergence and doubles the rate window; judged against its own
        # gaps it converges in 75 or 77 sweeps without one (84 or 108 with)
        lengthened = []
        real = solver._lengthened
        monkeypatch.setattr(
            solver, "_lengthened", lambda w, i: lengthened.append(i) or real(w, i)
        )
        rng = np.random.default_rng(seed)
        C = rng.random((int(rng.integers(2, 31)), int(rng.integers(2, 31))))
        plan = sinkhorn_unbalanced(C, SolverConfig(epsilon=0.01, rho=10.0))
        assert plan.converged and plan.omega > 1.0
        assert lengthened == []

    def test_worker_count_does_not_change_the_run(self):
        _assert_workers_do_not_change_the_relaxed_run(
            ChangeDetectionConfig(
                solver=SolverConfig(epsilon_rel=0.01, rho=1000.0),
                chunking=ChunkingConfig(point_cap=2500),
                workers=1,
            )
        )


class TestSinkhornUnbalanced:
    def test_identical_clouds_give_scaled_identity(self):
        X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        C = cost_matrix(X, X)
        plan = sinkhorn_unbalanced(C, SolverConfig(epsilon=0.01, rho=1.0))
        np.testing.assert_allclose(plan.coupling, np.eye(3) / 3.0, atol=1e-6)
        np.testing.assert_allclose(plan.row_marginal, np.full(3, 1 / 3), atol=1e-6)

    def test_target_marginal_always_hard(self):
        rng = np.random.default_rng(9)
        C = rng.random((14, 9))
        plan = sinkhorn_unbalanced(C, SolverConfig(epsilon=0.03, rho=0.2))
        assert plan.converged
        np.testing.assert_allclose(plan.col_marginal, np.full(9, 1 / 9), atol=1e-12)

    def test_two_to_one_mass_destruction_matches_direct_minimizer(self):
        # 2 sources, 1 target: the feasible set is one-dimensional
        # (p, 1-p), so the semi-relaxed objective can be minimized directly
        # and independently of the scaling iteration.
        X0 = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        X1 = np.array([[0.0, 0.0, 0.0]])
        C = cost_matrix(X0, X1)
        eps, rho = 0.1, 0.1

        def objective(p):
            P = np.array([p, 1.0 - p])
            with np.errstate(divide="ignore", invalid="ignore"):
                plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
            entropy = (plogp - P).sum()
            ratio = P / 0.5
            kl = np.where(P > 0, P * np.log(np.where(P > 0, ratio, 1.0)), 0.0).sum()
            kl += -P.sum() + 1.0
            return float((P * C[:, 0]).sum() + eps * entropy + rho * kl)

        direct = minimize_scalar(objective, bounds=(1e-12, 1 - 1e-12), method="bounded")
        plan = sinkhorn_unbalanced(C, SolverConfig(epsilon=eps, rho=rho))
        p_solver = plan.coupling[0, 0]
        np.testing.assert_allclose(plan.col_marginal, [1.0], atol=1e-12)
        assert plan.row_marginal[0] > 0.99
        assert plan.row_marginal[1] < 1e-6
        assert objective(p_solver) <= direct.fun + 1e-9

    def test_destroyed_row_survives_absorption(self, monkeypatch):
        # a bound just above 1 absorbs the scalings on almost every sweep,
        # after the far source's scaling has underflowed to 0
        monkeypatch.setattr(solver, "_ABSORB_BOUND", 1.0 + 1e-9)
        X0 = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        X1 = np.array([[0.0, 0.0, 0.0]])
        plan = sinkhorn_unbalanced(
            cost_matrix(X0, X1), SolverConfig(epsilon=0.1, rho=0.1)
        )
        assert plan.converged
        assert np.isfinite(plan.coupling).all()
        np.testing.assert_allclose(plan.col_marginal, [1.0], atol=1e-12)
        assert plan.row_marginal[1] == 0.0

    def test_large_rho_recovers_balanced_plan(self):
        rng = np.random.default_rng(10)
        C = rng.random((12, 15))
        eps = 0.05
        balanced = sinkhorn_balanced(C, SolverConfig(epsilon=eps, tol=1e-9))
        relaxed = sinkhorn_unbalanced(
            C, SolverConfig(epsilon=eps, rho=1e4 * eps, tol=1e-9, max_iter=20000)
        )
        assert np.linalg.norm(relaxed.coupling - balanced.coupling) <= 1e-3

    def test_plan_approaches_balanced_monotonically_in_rho(self):
        rng = np.random.default_rng(11)
        C = rng.random((8, 10))
        eps = 0.05
        balanced = sinkhorn_balanced(C, SolverConfig(epsilon=eps, tol=1e-10))
        dists = []
        for factor in (0.1, 1.0, 10.0, 100.0):
            plan = sinkhorn_unbalanced(
                C,
                SolverConfig(epsilon=eps, rho=factor * eps, tol=1e-10, max_iter=20000),
            )
            dists.append(np.linalg.norm(plan.coupling - balanced.coupling))
        assert dists == sorted(dists, reverse=True)

    def test_infinite_rho_points_to_balanced(self):
        with pytest.raises(ValueError, match="sinkhorn_balanced"):
            sinkhorn_unbalanced(np.eye(2), SolverConfig(epsilon=0.1, rho=math.inf))

    def test_missing_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            SolverConfig(epsilon=0.1, rho=None)

    def test_matches_log_sum_exp_reference(self):
        rng = np.random.default_rng(12)
        C = rng.random((7, 7))
        cfg = SolverConfig(epsilon=0.05, rho=0.3, max_iter=20000, tol=1e-12)
        plan = sinkhorn_unbalanced(C, cfg)
        assert plan.converged
        reference = _log_sum_exp_sinkhorn(C, 0.05, rho=0.3)
        np.testing.assert_allclose(plan.coupling, reference, atol=1e-9)

    def test_absorbing_every_sweep_leaves_the_plan_unchanged(self, monkeypatch):
        monkeypatch.setattr(solver, "_ABSORB_BOUND", 1.0 + 1e-9)
        rng = np.random.default_rng(12)
        C = rng.random((7, 7))
        cfg = SolverConfig(epsilon=0.05, rho=0.3, max_iter=20000, tol=1e-12)
        plan = sinkhorn_unbalanced(C, cfg)
        assert plan.converged
        reference = _log_sum_exp_sinkhorn(C, 0.05, rho=0.3)
        np.testing.assert_allclose(plan.coupling, reference, atol=1e-9)


class TestZeroScalings:
    """A column that no mass reaches keeps ``v = 0``, and a row whose ``Kv``
    underflowed keeps ``u = 0``, rather than an infinite scaling."""

    def test_target_and_source_scalings_of_massless_lines(self):
        # the helpers both solves share; u[2] = 0 cuts column 1 off. A
        # balanced solve never reaches a zero: a plain source update gives
        # each row mass mu0, and a target update scales that by at least
        # 1/n1
        K = np.array([[1.0, 0.0, 0.5], [0.25, 0.0, 1.0], [0.0, 2.0, 0.0]])
        u, v = np.full(3, np.nan), np.full(3, np.nan)
        Ktu = np.empty(3)
        with np.errstate(divide="ignore"):  # as in the solve
            solver._target_scaling(K, np.array([2.0, 1.0, 0.0]), 0.5, Ktu, out=v)
            solver._scaling(1 / 3, K @ np.array([0.0, 1.0, 0.0]), out=u)
        np.testing.assert_array_equal(v, [0.5 / 2.25, 0.0, 0.5 / 2.0])
        np.testing.assert_array_equal(u, [0.0, 0.0, (1 / 3) / 2.0])

    @pytest.mark.parametrize("absorb_bound", [solver._ABSORB_BOUND, 1.0 + 1e-9])
    def test_unbalanced_solve_across_absorptions(self, monkeypatch, absorb_bound):
        # rho 0.01 lets the solve destroy most sources; once the scalings
        # are absorbed, whole rows and columns of K underflow to 0 (the
        # first bound absorbs after sweeps 1 and 2, the second every sweep)
        monkeypatch.setattr(solver, "_ABSORB_BOUND", absorb_bound)
        zero_lines = {7: 0, 5: 0}
        scaling = solver._scaling

        def checked(mass, denom, out):
            scaling(mass, denom, out)
            zero = denom == 0
            assert np.isfinite(out).all() and (out[zero] == 0).all()
            zero_lines[len(denom)] += int(zero.sum())

        monkeypatch.setattr(solver, "_scaling", checked)
        C = np.random.default_rng(1).random((7, 5)) * 100
        plan = sinkhorn_unbalanced(
            C, SolverConfig(epsilon=1e-4, rho=0.01, max_iter=300)
        )
        assert zero_lines[7] > 0 and zero_lines[5] > 0
        assert np.isfinite(plan.coupling).all()
        col = plan.col_marginal
        reached = col > 0
        assert 0 < reached.sum() < 5
        np.testing.assert_allclose(col[reached], 0.2, rtol=1e-12)
        assert (plan.row_marginal == 0).any()


class TestLpExactSmall:
    def test_singleton(self):
        cost, plan = lp_exact_small(np.array([[0.0]]))
        assert cost == 0.0
        np.testing.assert_allclose(plan, [[1.0]])

    def test_zero_cost_diagonal(self):
        cost, plan = lp_exact_small(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)

    def test_degenerate_instance_has_flat_objective(self):
        # C[i,j] = r_i + c_j makes <P, C> constant (2.5) over the whole
        # polytope, so only the optimal value is asserted, not the vertex.
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        cost, plan = lp_exact_small(C)
        assert cost == pytest.approx(2.5, abs=1e-9)
        np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), [0.5, 0.5], atol=1e-9)

    def test_instance_size_limit(self):
        with pytest.raises(ValueError, match="400"):
            lp_exact_small(np.zeros((21, 21)))


class TestBarycentricProjection:
    def test_identity_coupling_returns_sources(self):
        X0 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        projected, mass = barycentric_projection(np.eye(3) / 3.0, X0)
        np.testing.assert_allclose(projected, X0)
        np.testing.assert_allclose(mass, np.full(3, 1 / 3))

    def test_equal_weight_column_gives_midpoint(self):
        X0 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        projected, _ = barycentric_projection(np.array([[0.5], [0.5]]), X0)
        np.testing.assert_allclose(projected, [[1.0, 0.0, 0.0]])

    def test_zero_mass_column_is_nan_not_crash(self):
        X0 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        P = np.array([[0.5, 0.0], [0.5, 0.0]])
        projected, mass = barycentric_projection(P, X0)
        assert np.isfinite(projected[0]).all()
        assert np.isnan(projected[1]).all()
        assert mass[1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            barycentric_projection(np.eye(3), np.zeros((2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_projection_in_source_hull(self, seed):
        rng = np.random.default_rng(seed)
        X0 = rng.normal(size=(6, 3))
        P = rng.random((6, 4))
        projected, mass = barycentric_projection(P, X0)
        lo, hi = X0.min(axis=0), X0.max(axis=0)
        reached = mass > 1e-3 / 4
        assert (projected[reached] >= lo - 1e-9).all()
        assert (projected[reached] <= hi + 1e-9).all()


class TestTransportPlanMarginals:
    def test_recomputed_not_cached(self):
        plan = TransportPlan(coupling=np.eye(2), converged=True, iterations=1)
        np.testing.assert_allclose(plan.row_marginal, [1.0, 1.0])
        plan.coupling[0, 0] = 5.0
        np.testing.assert_allclose(plan.row_marginal, [5.0, 1.0])
