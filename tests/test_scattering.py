import numpy as np
import pytest
from scipy.integrate import quad

from frame_oracles import frame_matrix_slow
from polyxport import harness, presets, scattering as sca


def rand_dirs(rng, d, n):
    return sca.sample_direction(rng, d, n)


def frame(v):
    return sca.to_frame(np.eye(len(v)), v)


class TestFrame:
    def test_identity_at_e1(self):
        for d in (2, 3):
            e1 = np.zeros(d)
            e1[0] = 1.0
            assert np.allclose(frame(e1), np.eye(d), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_defining_property(self, d):
        rng = np.random.default_rng(0)
        e1 = np.zeros(d)
        e1[0] = 1.0
        for v in rand_dirs(rng, d, 200):
            K = frame(v)
            assert np.linalg.norm(v @ K - e1) < 1e-12
            assert np.linalg.det(K) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(K @ K.T, np.eye(d), atol=1e-12)

    def test_fallback_direction(self):
        for d in (2, 3):
            v = np.zeros(d)
            v[0] = -1.0
            K = frame(v)
            assert np.linalg.norm(v @ K - np.eye(d)[0]) < 1e-12
            assert np.linalg.det(K) == pytest.approx(1.0)

    def test_exact_half_turn(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            v = np.zeros(d)
            v[0] = -1.0
            flip = np.ones(d)
            flip[:2] = -1.0
            u = rng.normal(size=(5, d))
            assert np.array_equal(sca.to_frame(u, v), u * flip)
            assert np.array_equal(sca.from_frame(u, v), u * flip)
            # one half-turn row among ordinary ones
            vs = rand_dirs(rng, d, 5)
            vs[2] = v
            got = sca.to_frame(u, vs)
            assert np.array_equal(got[2], u[2] * flip)
            assert np.array_equal(got[[0, 1, 3, 4]],
                                  sca.to_frame(u[[0, 1, 3, 4]],
                                               vs[[0, 1, 3, 4]]))

    def test_lipschitz_on_cap(self):
        # sampled continuity away from the excluded direction
        rng = np.random.default_rng(1)
        for _ in range(200):
            th = rng.uniform(-2.0, 2.0)   # cap excluding angle pi
            dth = rng.uniform(1e-7, 1e-5)
            v1 = np.array([np.cos(th), np.sin(th)])
            v2 = np.array([np.cos(th + dth), np.sin(th + dth)])
            dk = np.linalg.norm(frame(v1) - frame(v2))
            assert dk <= 20.0 * np.linalg.norm(v1 - v2)

    def test_vectorized_matches_scalar(self):
        # the batched matrices carry the oracle's bits, direction by
        # direction, and so does each one-direction call
        rng = np.random.default_rng(2)
        for d in (2, 3):
            vs = rand_dirs(rng, d, 20000)
            want = np.array([frame_matrix_slow(v) for v in vs])
            assert np.array_equal(sca.to_frame(np.eye(d), vs[:, None, :]),
                                  want)
            for v, K in zip(vs[:200], want):
                assert np.array_equal(frame(v), K)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [256, 1000, 2048])
    def test_oracle_bits_on_default_grids(self, d, m):
        scene = presets.two_squares_2d() if d == 2 else presets.single_box_3d()
        dirs, _ = harness.direction_grid(scene, m)
        want = np.array([frame_matrix_slow(v) for v in dirs])
        assert np.array_equal(sca.to_frame(np.eye(d), dirs[:, None, :]), want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_from_frame_inverts_to_frame(self, d):
        rng = np.random.default_rng(3)
        vs = rand_dirs(rng, d, 1000)
        us = rng.normal(size=(1000, d))
        assert np.allclose(sca.from_frame(sca.to_frame(us, vs), vs), us,
                           atol=1e-12)
        assert np.allclose(sca.to_frame(sca.from_frame(us, vs), vs), us,
                           atol=1e-12)
        # from_frame applies the transpose of the oracle matrix
        for u, v in zip(us[:50], vs[:50]):
            assert np.allclose(sca.from_frame(u, v),
                               u @ frame_matrix_slow(v).T, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_direction_maps_to_e1(self, d):
        rng = np.random.default_rng(4)
        vs = rand_dirs(rng, d, 1000)
        assert np.allclose(sca.to_frame(vs, vs), np.eye(d)[0], atol=1e-12)
        assert np.allclose(sca.from_frame(np.eye(d)[0], vs), vs, atol=1e-12)


class TestReflect:
    def test_head_on(self):
        v = np.array([1.0, 0.0])
        assert np.allclose(sca.reflect(v, -v), -v)

    def test_45_degrees(self):
        v = np.array([1.0, 0.0])
        w = np.array([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert np.allclose(sca.reflect(v, w), [0.0, 1.0], atol=1e-15)

    def test_energy(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for v in rand_dirs(rng, d, 100):
                w = rand_dirs(rng, d, 1)[0]
                if v @ w >= 0:
                    w = -w
                if abs(v @ w) < 1e-9:
                    continue
                assert np.linalg.norm(sca.reflect(v, w)) == pytest.approx(1.0)

    def test_grazing_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            sca.reflect(v, np.array([0.0, 1.0]))


class TestImpactExit:
    def test_backscatter_zero(self):
        v = np.array([1.0, 0.0])
        assert np.allclose(sca.impact_param(v, -v), 0.0)

    def test_deflection_angle_magnitude(self):
        v = np.array([1.0, 0.0])
        for th in (0.3, 1.1, 2.5):
            vp = np.array([np.cos(th), np.sin(th)])
            b = sca.impact_param(v, vp)
            assert np.linalg.norm(b) == pytest.approx(np.cos(th / 2), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip(self, d):
        rng = np.random.default_rng(4)
        vs = rand_dirs(rng, d, 200)
        bs = sca.sample_ball(rng, d - 1, 200)
        vps = sca.deflect_many(vs, bs)
        # the impact point regenerates the deflection
        wk = np.concatenate([-np.sqrt(1.0 - np.sum(bs * bs, axis=1))[:, None],
                             bs], axis=1)
        ws = sca.from_frame(wk, vs)
        for v, b, vp, w in zip(vs, bs, vps, ws):
            assert np.allclose(sca.impact_param(v, vp), b, atol=1e-11)
            assert np.allclose(sca.reflect(v, w), vp, atol=1e-11)

    def test_exit_param_is_flipped_reentry(self):
        # exit parameter of (v_prev -> v) equals the impact point of the
        # same collision expressed in the outgoing frame
        rng = np.random.default_rng(5)
        for d in (2, 3):
            v_prevs = rand_dirs(rng, d, 100)
            vs = sca.deflect_many(v_prevs, sca.sample_ball(rng, d - 1, 100))
            for v_prev, v in zip(v_prevs, vs):
                w_pt = (v - v_prev) / np.linalg.norm(v - v_prev)
                s = sca.exit_param(v, v_prev)
                assert np.allclose(s, (w_pt @ frame_matrix_slow(v))[1:],
                                   atol=1e-12)
                assert np.linalg.norm(s) < 1.0
            assert np.allclose(sca.exit_params_many(vs, v_prevs),
                               [sca.exit_param(v, vp)
                                for v, vp in zip(vs, v_prevs)], atol=1e-15)

    def test_norm_invariance_under_rotation(self):
        rng = np.random.default_rng(6)
        th = 0.77
        R = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        for _ in range(100):
            v = rand_dirs(rng, 2, 1)[0]
            b = sca.sample_ball(rng, 1)
            vp = sca.deflect_many(v[None], b[None])[0]
            b2 = sca.impact_param(v @ R, vp @ R)
            assert np.linalg.norm(b2) == pytest.approx(
                abs(float(b[0])), abs=1e-11)

    def test_no_deflection_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            sca.impact_param(v, v)


class TestCrossSection:
    def test_3d_isotropic(self):
        rng = np.random.default_rng(7)
        v = np.array([0.0, 0.0, 1.0])
        for vp in rand_dirs(rng, 3, 20):
            if np.allclose(vp, v):
                continue
            assert sca.cross_section(v, vp) == pytest.approx(0.25)

    def test_2d_formula(self):
        v = np.array([1.0, 0.0])
        for th in (0.4, 1.2, 3.0):
            vp = np.array([np.cos(th), np.sin(th)])
            assert sca.cross_section(v, vp) == pytest.approx(
                0.5 * np.sin(th / 2))

    def test_total_2d(self):
        v = np.array([1.0, 0.0])
        total, _ = quad(lambda t: sca.cross_section(
            v, np.array([np.cos(t), np.sin(t)])), 1e-9, 2 * np.pi - 1e-9,
            epsabs=1e-10)
        assert total == pytest.approx(2.0, abs=1e-6)

    def test_total_3d(self):
        # polar quadrature over the sphere around v = e3
        nodes, wts = np.polynomial.legendre.leggauss(64)
        total = 0.0
        v = np.array([0.0, 0.0, 1.0])
        for c, wt in zip(nodes, wts):
            s = np.sqrt(1 - c * c)
            vp = np.array([s, 0.0, c])
            total += wt * sca.cross_section(v, vp) * 2 * np.pi
        assert total == pytest.approx(np.pi, abs=1e-9)

    def test_jacobian_pushforward_2d(self):
        # uniform impact parameters through the deflection map follow
        # sigma/sigma_bar in the relative angle
        rng = np.random.default_rng(8)
        n = 100000
        v = np.array([1.0, 0.0])
        b = rng.uniform(-1, 1, n)
        vp = sca.deflect_many(np.tile(v, (n, 1)), b[:, None])
        ang = np.mod(np.arctan2(vp[:, 1], vp[:, 0]), 2 * np.pi)
        edges = np.linspace(0, 2 * np.pi, 33)
        counts = np.histogram(ang, edges)[0]
        probs = np.diff(-np.cos(edges / 2)) / 2.0
        from polyxport import stats
        chi2, p = stats.chi2_gof(counts, probs)
        assert p > 0.01
