import numpy as np
import pytest

from states import (
    GaussianState,
    _apply_linear,
    coherent,
    condition_heterodyne,
    condition_homodyne,
    partial_trace,
    splitter_matrix,
    tensor,
    thermal,
    vacuum,
)


def mix(state, eta, mode_i, mode_j):
    """Couple two modes of state on a beam splitter of transmission eta."""
    return _apply_linear(state, splitter_matrix(eta, mode_i, mode_j, state.n_modes))


class TestConstructors:
    def test_vacuum_is_identity(self):
        st = vacuum(1)
        assert np.array_equal(st.mean, np.zeros(2))
        assert np.array_equal(st.cov, np.eye(2))
        assert vacuum(2).cov.shape == (4, 4)
        assert np.array_equal(vacuum(2).cov, np.eye(4))

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum(0)

    def test_coherent_mean_and_cov(self):
        st = coherent(3.0, -1.0)
        assert np.array_equal(st.mean, [3.0, -1.0])
        assert np.array_equal(st.cov, np.eye(2))
        zero = coherent(0.0, 0.0)
        assert np.array_equal(zero.mean, vacuum(1).mean)
        assert np.array_equal(zero.cov, vacuum(1).cov)

    def test_thermal(self):
        assert np.array_equal(thermal(1.0).cov, np.eye(2))
        assert np.array_equal(thermal(25.0).cov, 25.0 * np.eye(2))
        with pytest.raises(ValueError):
            thermal(0.5)

    def test_tensor_blocks(self):
        st = tensor(coherent(1.0, 2.0), thermal(25.0))
        assert np.array_equal(st.mean, [1.0, 2.0, 0.0, 0.0])
        assert st.cov[2, 2] == 25.0
        assert np.all(st.cov[:2, 2:] == 0.0)
        both = tensor(vacuum(1), vacuum(1))
        assert np.array_equal(both.cov, vacuum(2).cov)

    def test_validation_rejects_asymmetric_cov(self):
        cov = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), cov)

    def test_states_are_immutable(self):
        st = vacuum(1)
        with pytest.raises(ValueError):
            st.cov[0, 0] = 5.0


class TestSymplectic:
    def test_form_preserved_by_beam_splitter(self):
        for eta in (0.1, 0.5, 0.9, 1.0):
            m = splitter_matrix(eta, 0, 1, 2)
            omega = np.kron(np.eye(2), [[0, 1], [-1, 0]])
            err = np.max(np.abs(m @ omega @ m.T - omega))
            assert err < 1e-10

    def test_full_transmission_flips_second_arm(self):
        st = mix(tensor(coherent(2.0, 0.0), coherent(3.0, 1.0)), 1.0, 0, 1)
        assert st.mean[0] == pytest.approx(2.0)
        assert st.mean[2] == pytest.approx(-3.0)
        assert st.mean[3] == pytest.approx(-1.0)

    def test_sign_convention(self):
        # X_i -> sqrt(eta) X_i + sqrt(1-eta) X_j ; X_j -> sqrt(1-eta) X_i - sqrt(eta) X_j
        eta = 0.7
        m = splitter_matrix(eta, 0, 1, 2)
        t, r = np.sqrt(eta), np.sqrt(1 - eta)
        assert m[0, 0] == pytest.approx(t)
        assert m[0, 2] == pytest.approx(r)
        assert m[2, 0] == pytest.approx(r)
        assert m[2, 2] == pytest.approx(-t)

    def test_balanced_splitter_fixes_vacuum(self):
        st = mix(vacuum(2), 0.5, 0, 1)
        assert np.allclose(st.cov, np.eye(4), atol=1e-12)

    def test_mixes_coherent_and_thermal(self):
        st = mix(tensor(coherent(10.0, 0.0), thermal(25.0)), 0.9, 0, 1)
        assert st.cov[0, 0] == pytest.approx(0.9 * 1 + 0.1 * 25)
        assert st.cov[1, 1] == pytest.approx(3.4)

    def test_apply_composition(self):
        s1 = splitter_matrix(0.7, 0, 1, 2)
        s2 = splitter_matrix(0.4, 0, 1, 2)
        st = tensor(coherent(1.0, -2.0), thermal(5.0))
        via_two = _apply_linear(_apply_linear(st, s1), s2)
        via_one = _apply_linear(st, s2 @ s1)
        assert np.allclose(via_two.mean, via_one.mean, atol=1e-12)
        assert np.allclose(via_two.cov, via_one.cov, atol=1e-12)

    def test_identity_map_fixes_state(self):
        st = tensor(coherent(1.0, 2.0), thermal(2.0))
        out = _apply_linear(st, np.eye(4))
        assert np.array_equal(out.mean, st.mean)
        assert np.array_equal(out.cov, st.cov)

    def test_passive_maps_keep_states_physical(self):
        st = tensor(tensor(coherent(2.0, 1.0), thermal(7.0)), vacuum(1))
        for eta, i, j in ((0.3, 0, 1), (0.8, 1, 2), (0.6, 0, 2)):
            st = mix(st, eta, i, j)
            assert np.min(np.linalg.eigvalsh(st.cov)) >= 1.0 - 1e-9
            assert np.max(np.abs(st.cov - st.cov.T)) < 1e-12


class TestDisplaceAndTrace:
    def test_tensor_trace_round_trip(self):
        a, b = coherent(1.0, 2.0), thermal(9.0)
        joint = tensor(a, b)
        back = partial_trace(joint, [0])
        assert np.array_equal(back.mean, a.mean)
        assert np.array_equal(back.cov, a.cov)
        with pytest.raises(ValueError):
            partial_trace(joint, [2])  # mode out of range

    def test_keep_all_is_identity(self):
        st = mix(tensor(coherent(1, 0), thermal(2.0)), 0.3, 0, 1)
        assert np.array_equal(partial_trace(st, [0, 1]).cov, st.cov)

    def test_channel_marginals_after_coupling(self):
        # signal marginal of the eta-coupled pair carries eta*1 + (1-eta)*V
        eta, v = 0.9, 25.0
        st = mix(tensor(coherent(0, 0), thermal(v)), eta, 0, 1)
        sig = partial_trace(st, [0])
        env = partial_trace(st, [1])
        assert sig.cov[0, 0] == pytest.approx(eta + (1 - eta) * v)
        assert env.cov[0, 0] == pytest.approx((1 - eta) + eta * v)


def _coupled_pair(eta=0.9, v=25.0, mean=(2.0, -1.0)):
    return mix(tensor(coherent(*mean), thermal(v)), eta, 0, 1)


class TestConditioning:
    def test_product_state_unchanged_heterodyne(self):
        st = tensor(coherent(1.0, 2.0), thermal(9.0))
        cond = condition_heterodyne(st, 1, (4.0, -4.0))
        assert np.allclose(cond.mean, [1.0, 2.0], atol=1e-12)
        assert np.allclose(cond.cov, np.eye(2), atol=1e-12)

    def test_product_state_unchanged_homodyne(self):
        st = tensor(coherent(1.0, 2.0), thermal(9.0))
        cond = condition_homodyne(st, 1, "x", 2.5)
        sig = partial_trace(cond, [0])
        assert np.allclose(sig.mean, [1.0, 2.0], atol=1e-12)
        assert np.allclose(sig.cov, np.eye(2), atol=1e-12)

    def test_heterodyne_matches_block_algebra(self):
        st = _coupled_pair()
        # independent Schur-complement arithmetic on the raw blocks
        a = st.cov[2:, 2:] + np.eye(2)
        c = st.cov[:2, 2:]
        b = st.cov[:2, :2]
        outcome = np.array([0.7, -0.3])
        expected_cov = b - c @ np.linalg.inv(a) @ c.T
        expected_mean = st.mean[:2] + c @ np.linalg.inv(a) @ (outcome - st.mean[2:])
        cond = condition_heterodyne(st, 1, tuple(outcome))
        assert np.allclose(cond.cov, expected_cov, atol=1e-12)
        assert np.allclose(cond.mean, expected_mean, atol=1e-12)

    def test_conditioned_cov_outcome_independent(self):
        st = _coupled_pair()
        cov_a = condition_heterodyne(st, 1, (0.0, 0.0)).cov
        cov_b = condition_heterodyne(st, 1, (5.0, -7.0)).cov
        assert np.array_equal(cov_a, cov_b)

    def test_conditional_mean_linear_in_outcome(self):
        st = _coupled_pair()
        slope = st.cov[:2, 2:] @ np.linalg.inv(st.cov[2:, 2:] + np.eye(2))
        base = condition_heterodyne(st, 1, (0.0, 0.0)).mean
        for outcome in ((1.0, 0.0), (0.0, 1.0), (3.0, -2.0)):
            mean = condition_heterodyne(st, 1, outcome).mean
            assert np.allclose(mean - base, slope @ np.array(outcome), atol=1e-12)

    def test_commutes_on_independent_product_modes(self):
        st = tensor(tensor(_coupled_pair(), coherent(1.0, 1.0)), thermal(4.0))
        # modes: 0 signal, 1 env (correlated), 2 coherent, 3 thermal
        ab = condition_heterodyne(st, 1, (0.5, 0.5))
        ab = condition_heterodyne(ab, 2, (1.0, -1.0))  # mode 3 shifted down
        ba = condition_heterodyne(st, 3, (1.0, -1.0))
        ba = condition_heterodyne(ba, 1, (0.5, 0.5))
        assert np.allclose(ab.cov, ba.cov, atol=1e-12)
        assert np.allclose(ab.mean, ba.mean, atol=1e-12)

    def test_homodyne_pins_measured_quadrature(self):
        st = _coupled_pair()
        cond = condition_homodyne(st, 1, "x", 1.5)
        assert cond.mean[2] == 1.5
        assert np.all(cond.cov[2, :] == 0.0)
        assert np.all(cond.cov[:, 2] == 0.0)

    def test_homodyne_x_does_not_touch_p_when_uncorrelated(self):
        st = _coupled_pair()
        cond = condition_homodyne(st, 1, "x", 2.0)
        assert cond.mean[1] == pytest.approx(st.mean[1], abs=1e-14)
        assert cond.cov[1, 1] == pytest.approx(st.cov[1, 1], abs=1e-14)

    def test_homodyne_matches_deleted_row_schur(self):
        st = _coupled_pair()
        q = 2  # env x row
        keep = [0, 1, 3]
        var = st.cov[q, q]
        row = st.cov[np.ix_(keep, [q])].ravel()
        expected_cov = st.cov[np.ix_(keep, keep)] - np.outer(row, row) / var
        outcome = -0.8
        expected_mean = st.mean[keep] + row * (outcome - st.mean[q]) / var
        cond = condition_homodyne(st, 1, "x", outcome)
        got = cond.cov[np.ix_(keep, keep)]
        assert np.allclose(got, expected_cov, atol=1e-12)
        assert np.allclose(cond.mean[keep], expected_mean, atol=1e-12)

    def test_double_homodyne_equals_sharp_dual_conditioning(self):
        st = _coupled_pair()
        a = st.cov[2:, 2:]
        c = st.cov[:2, 2:]
        expected = st.cov[:2, :2] - c @ np.linalg.inv(a) @ c.T
        cond = condition_homodyne(st, 1, "x", 0.0)
        cond = condition_homodyne(cond, 1, "p", 0.0)
        sig = partial_trace(cond, [0])
        assert np.allclose(sig.cov, expected, atol=1e-12)

    def test_heterodyne_removes_measured_mode(self):
        st = _coupled_pair()
        cond = condition_heterodyne(st, 0, (1.0, 1.0))
        assert cond.n_modes == 1
