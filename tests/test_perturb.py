import numpy as np
import pytest

from morilab.chain import LanczosChain
from morilab.design import gaussian_chain
from morilab.perturb import POSITIVITY_FLOOR, apply_draw, draw_noise


def literal_noise(d, x, y):
    """Oracle: the truncated Fourier sum written out term by term."""
    n = np.arange(1, d)
    v = np.zeros(d - 1)
    for k in range(1, len(x) + 1):
        v += x[k - 1] * np.cos(2 * np.pi * n * k / d) \
            + y[k - 1] * np.sin(2 * np.pi * n * k / d)
    return v


class TestDrawNoise:
    def test_amplitudes_normalized_exactly(self):
        for seed in range(5):
            draw = draw_noise(500, 166, seed)
            assert abs(draw.amplitude_norm - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = draw_noise(300, 100, 42)
        b = draw_noise(300, 100, 42)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.x, b.x)
        c = draw_noise(300, 100, 43)
        assert not np.array_equal(a.v, c.v)

    @pytest.mark.parametrize("d,n_f", [(16, 5), (16, 16), (17, 17), (64, 21)])
    def test_assembly_matches_literal_sum(self, d, n_f):
        draw = draw_noise(d, n_f, 9)
        assert np.abs(draw.v - literal_noise(d, draw.x, draw.y)).max() < 1e-12

    def test_band_limit(self):
        d, n_f = 512, 100
        draw = draw_noise(d, n_f, 3)
        full = np.concatenate([[draw.v0], draw.v])
        spectrum = np.abs(np.fft.rfft(full))
        assert spectrum[n_f + 1:].max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_v2_trig_identity(self, seed):
        # closed form over the full period minus the n = 0 boundary term
        d, n_f = 2000, 666
        draw = draw_noise(d, n_f, seed)
        assert abs(draw.sum_v2 - (d / 2 - draw.v0**2)) < 1e-8 * d

    def test_white_noise_limit_allowed(self):
        draw = draw_noise(100, 100, 0)
        assert draw.v.size == 99
        # all-frequency draw: no band limit remains
        assert draw.n_f == draw.d

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_noise(100, 0, 1)
        with pytest.raises(ValueError):
            draw_noise(100, 101, 1)


class TestApplyDraw:
    def test_zero_strength_identity(self):
        chain = gaussian_chain(5, 200)
        pert = apply_draw(chain, 0.0, draw_noise(200, 66, 1))
        assert np.array_equal(pert.chain.b, chain.b)
        assert pert.clamp_count == 0

    def test_elementwise_addition(self):
        chain = gaussian_chain(5, 200)
        draw = draw_noise(200, 66, 2)
        pert = apply_draw(chain, 0.5, draw)
        free = pert.chain.b != 1e-6
        assert np.allclose(pert.chain.b[free],
                           (chain.b + 0.5 * draw.v)[free], atol=1e-15)

    def test_clamping_counts_and_floors(self):
        tiny = LanczosChain(np.full(99, 1e-4))
        draw = draw_noise(100, 33, 11)
        pert = apply_draw(tiny, 1.0, draw)
        expected = int(np.sum(tiny.b + draw.v < 1e-6))
        assert pert.clamp_count == expected
        assert pert.clamp_count > 0
        assert pert.chain.b.min() >= 1e-6
        assert pert.invalid  # far more than 1% of entries floored

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_draw(gaussian_chain(5, 100), 0.5, draw_noise(200, 66, 1))

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            apply_draw(gaussian_chain(5, 100), -0.1, draw_noise(100, 33, 1))

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_nonpositive_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor"):
            apply_draw(gaussian_chain(5, 100), 3.0, draw_noise(100, 100, 1),
                       floor=floor)

    def test_default_floor_accepted(self):
        pert = apply_draw(LanczosChain(np.full(99, 1e-4)), 1.0,
                          draw_noise(100, 33, 11), floor=POSITIVITY_FLOOR)
        assert pert.clamp_count > 0
        assert pert.chain.b.min() == POSITIVITY_FLOOR


def scaling_terms(base, lam, draw):
    """(relative, cross): the cross term 2*lambda*sum(b v) of
    sum(b~^2) - sum(b^2), and how far that difference departs from the
    lambda^2 * sum(v^2) law, relative to it."""
    pert = apply_draw(base, lam, draw)
    quad = lam**2 * draw.sum_v2
    cross = 2.0 * lam * float(np.sum(base.b * draw.v))
    excess = float(np.sum(pert.chain.b**2)) - float(np.sum(base.b**2)) - quad
    return (0.0 if quad == 0.0 else excess / quad), cross


class TestScalingCheck:
    def test_zero_strength_exact_zero(self):
        chain = gaussian_chain(5, 300)
        relative, cross = scaling_terms(chain, 0.0, draw_noise(300, 100, 4))
        assert relative == 0.0
        assert cross == 0.0

    def test_identity_without_clamps(self):
        # sum(b~^2) decomposes exactly into base + cross + quadratic
        chain = gaussian_chain(5, 300)
        draw = draw_noise(300, 100, 5)
        pert = apply_draw(chain, 0.5, draw)
        assert pert.clamp_count == 0
        _, cross = scaling_terms(chain, 0.5, draw)
        lhs = np.sum(pert.chain.b**2) - np.sum(chain.b**2)
        rhs = cross + 0.25 * draw.sum_v2
        assert abs(lhs - rhs) < 1e-8 * np.sum(chain.b**2)

    def test_cross_term_zero_mean_over_ensemble(self):
        chain = gaussian_chain(10, 1000)
        crosses = []
        for seed in range(120):
            crosses.append(
                scaling_terms(chain, 0.5, draw_noise(1000, 333, seed))[1])
        crosses = np.array(crosses)
        se = crosses.std(ddof=1) / np.sqrt(crosses.size)
        assert abs(crosses.mean()) <= 3 * se

    def test_cross_term_negligible_vs_total(self):
        # the additive-noise design keeps the cross term tiny against the
        # chain's total squared weight for every draw
        chain = gaussian_chain(150, 2000)
        total = np.sum(chain.b**2)
        rels = []
        for seed in range(40):
            _, cross = scaling_terms(chain, 0.5, draw_noise(2000, 666, seed))
            rels.append(abs(cross) / total)
        assert max(rels) < 1e-2
        assert np.median(rels) < 1e-3

    def test_relative_cross_term_small_for_flat_chain(self):
        # against the quadratic term the cross term is only small when the
        # coefficient sequence has no sawtooth jump at the period boundary
        flat = LanczosChain(np.full(1999, 2.0))
        rels = []
        for seed in range(40):
            relative, _ = scaling_terms(flat, 0.5, draw_noise(2000, 666, seed))
            rels.append(abs(relative))
        assert np.median(rels) < 0.05
