"""Magnitude baseline: hand values of the whole-array oracles, the banded
passes against them byte for byte, margin properties, tau estimation."""

import numpy as np
import pytest

from frmil import baseline
from frmil.bagdata import SingleClassError, SyntheticSpec, generate_synthetic, make_bag
from frmil.baseline import (
    MagnitudeRecord,
    bag_probability,
    baseline_classify,
    compute_magnitudes,
    estimate_tau,
    write_density_csv,
)
from oracles import (
    brute_force_baseline,
    kde_whole_grid,
    mean_magnitude,
    pad_to,
    recalibrate_by_norm_max,
)


class TestMeanMagnitude:
    def test_single_row_squared(self):
        assert mean_magnitude(np.array([[3.0, 4.0]]), squared=True) == 25.0

    def test_single_row_unsquared(self):
        assert mean_magnitude(np.array([[3.0, 4.0]]), squared=False) == 5.0

    def test_zero_bag(self):
        assert mean_magnitude(np.zeros((4, 3))) == 0.0

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 6))
        doubled = np.vstack([h, h])
        assert mean_magnitude(doubled) == pytest.approx(mean_magnitude(h))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_magnitude(np.zeros((0, 3)))


class TestRecalibrateByNormMax:
    def test_single_instance_becomes_zero(self):
        out = recalibrate_by_norm_max(np.array([[2.0, -1.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_hand_value(self):
        out = recalibrate_by_norm_max(np.array([[1.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out, [[-1.0, 0.0], [0.0, 0.0]])

    def test_max_row_maps_to_zero(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(7, 5))
        idx = int(np.argmax((h ** 2).sum(axis=1)))
        out = recalibrate_by_norm_max(h)
        np.testing.assert_array_equal(out[idx], np.zeros(5))

    def test_tie_breaks_to_lowest_index(self):
        h = np.array([[0.0, 2.0], [2.0, 0.0], [0.1, 0.1]])
        out = recalibrate_by_norm_max(h)
        np.testing.assert_array_equal(out[0], np.zeros(2))

    def test_translation_covariant(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(6, 4))
        shift = rng.normal(size=4) * 10
        np.testing.assert_allclose(recalibrate_by_norm_max(h + shift),
                                   recalibrate_by_norm_max(h), atol=1e-9)


DIMS = (1, 7, 64, 512, 513)


def banded_bag(dim, seed, bag_id="b", label=1):
    """A bag of two full bands and a partial third at the module's band
    size, its values spread over several orders of magnitude."""
    rng = np.random.default_rng(seed)
    n = 2 * baseline._band(dim) + baseline._band(dim) // 3 + 1
    scale = np.exp(rng.normal(size=(n, 1)))
    return make_bag(bag_id, label, rng.normal(size=(n, dim)) * scale)


def hexes(values):
    return [float(v).hex() for v in values]


def oracle_magnitudes(bag, squared=True):
    real = bag.features[bag.mask]
    return (mean_magnitude(real, squared),
            mean_magnitude(recalibrate_by_norm_max(real), squared))


def assert_bytes_match_oracle(bags):
    for squared in (True, False):
        got = [(r.mu_raw, r.mu_recal)
               for r in compute_magnitudes(bags, squared=squared)]
        want = [oracle_magnitudes(b, squared) for b in bags]
        assert [hexes(g) for g in got] == [hexes(w) for w in want]
    for recal in (False, True):
        mus = [row[2] for row in baseline_classify(bags, 1.0, recal).rows]
        assert hexes(mus) == hexes(oracle_magnitudes(b)[recal] for b in bags)


class TestBandedMagnitudes:
    """The banded norm passes give the whole-array oracle's bytes."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_bags_over_several_bands(self, dim):
        bags = [banded_bag(dim, seed) for seed in range(2)]
        assert bags[0].n_rows > 2 * baseline._band(dim)
        assert bags[0].n_rows % baseline._band(dim)
        assert_bytes_match_oracle(bags)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("band", (1, 3, 64))
    def test_any_band_size(self, dim, band, monkeypatch):
        monkeypatch.setattr(baseline, "_MAG_BAND_BYTES", band * 8 * dim)
        rng = np.random.default_rng(dim + band)
        bags = [make_bag(f"b{n}", 1, rng.normal(size=(n, dim)))
                for n in (1, band, band + 1, 5 * band + 2)]
        assert_bytes_match_oracle(bags)

    @pytest.mark.parametrize("dim", DIMS)
    def test_masked_rows(self, dim, monkeypatch):
        monkeypatch.setattr(baseline, "_MAG_BAND_BYTES", 4 * 8 * dim)
        bag = banded_bag(dim, 3)
        padded = pad_to(bag, bag.n_rows + 9)
        padded.mask[:5] = False  # masked rows at the front as well
        assert_bytes_match_oracle([padded])

    def test_bag_with_every_row_masked_raises(self):
        bag = pad_to(make_bag("b", 1, np.ones((3, 4))), 5)
        bag.mask[:] = False
        with pytest.raises(ValueError, match="every row is masked"):
            compute_magnitudes([bag])
        with pytest.raises(ValueError, match="every row is masked"):
            baseline_classify([bag], 1.0, recalibrate=False)

    @pytest.mark.parametrize("dim", DIMS)
    def test_tie_for_the_top_norm_goes_to_the_lowest_index(self, dim):
        bag = banded_bag(dim, 4)
        rows = bag.features
        top = int(np.argmax((rows.astype(np.float64) ** 2).sum(axis=1)))
        assert top >= baseline._band(dim)  # the tie spans two bands
        rows[0] = -rows[top]  # the same squares, at a lower index
        assert_bytes_match_oracle([bag])
        # shifting by the later of the two rows would give other bytes
        later = mean_magnitude(rows.astype(np.float64) - rows[top])
        assert compute_magnitudes([bag])[0].mu_recal != later


class TestBandedDensity:
    @pytest.mark.parametrize("n_values", (1, 2, 9, 600))
    @pytest.mark.parametrize("band_bytes", (8, 24 * 1024, 1 << 60))
    def test_equals_the_whole_grid(self, n_values, band_bytes, monkeypatch):
        monkeypatch.setattr(baseline, "_MAG_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(n_values)
        values = rng.gamma(2.0, 3.0, size=n_values)
        grid = np.linspace(0.0, 1.05 * values.max(), 5000)
        got = baseline._kde(values, grid, 0.7)
        assert hexes(got) == hexes(kde_whole_grid(values, grid, 0.7))


class TestBagProbability:
    def test_zero_magnitude(self):
        assert bag_probability(0.0, 8.48) == 0.0

    def test_half_at_half_margin(self):
        # the stock margin default: half the margin maps to probability 0.5
        assert bag_probability(4.24, 8.48) == pytest.approx(0.5)

    def test_clamps_above_margin(self):
        assert bag_probability(20.0, 18.8) == 1.0

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            tau = float(rng.uniform(0.1, 50))
            mus = np.sort(rng.uniform(0, 100, size=10))
            probs = [bag_probability(m, tau) for m in mus]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
            assert bag_probability(tau * 1.5, tau) == 1.0

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            bag_probability(1.0, 0.0)


def records_from(mus_neg, mus_pos):
    recs = [MagnitudeRecord(f"n{i}", 0, m, m) for i, m in enumerate(mus_neg)]
    recs += [MagnitudeRecord(f"p{i}", 1, m, m) for i, m in enumerate(mus_pos)]
    return recs


class TestEstimateTau:
    def test_well_separated_crossing_in_gap(self):
        rng = np.random.default_rng(5)
        neg = rng.normal(1.0, 0.08, size=40)
        pos = rng.normal(3.0, 0.08, size=40)
        est = estimate_tau(records_from(neg, pos))
        assert est.method == "density-crossing"
        assert 1.0 < est.tau < 3.0
        # oracle: thresholding magnitudes at tau is as accurate as the best
        # threshold from a brute-force sweep
        mus = np.concatenate([neg, pos])
        labels = np.array([0] * 40 + [1] * 40)
        acc_at = lambda t: float(((mus >= t).astype(int) == labels).mean())
        best = max(acc_at(t) for t in np.linspace(0, mus.max() * 1.05, 256))
        assert acc_at(est.tau) == pytest.approx(best)

    def test_identical_classes_fallback_midpoint(self):
        vals = np.linspace(1.0, 2.0, 25)
        est = estimate_tau(records_from(vals, vals))
        assert est.method == "midpoint-fallback"
        assert est.tau == pytest.approx(vals.mean())

    def test_scaling_covariance(self):
        rng = np.random.default_rng(6)
        neg = rng.normal(1.0, 0.1, size=30)
        pos = rng.normal(3.0, 0.3, size=30)
        base = estimate_tau(records_from(neg, pos), bins=256)
        for c in (0.5, 4.0):
            scaled = estimate_tau(records_from(neg * c, pos * c), bins=256)
            grid_step = max(np.max(pos * c), np.max(neg * c)) * 1.05 / 255
            assert abs(scaled.tau - c * base.tau) <= grid_step + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        recs = records_from(rng.normal(1, 0.2, 20), rng.normal(2, 0.2, 20))
        a = estimate_tau(recs, bins=128)
        b = estimate_tau(recs, bins=128)
        assert a == b

    def test_single_class_raises(self):
        recs = [MagnitudeRecord("n0", 0, 1.0, 1.0),
                MagnitudeRecord("n1", 0, 1.1, 1.1)]
        with pytest.raises(SingleClassError, match="label 1"):
            estimate_tau(recs)


class TestBaselineClassify:
    def test_matches_brute_force_on_synthetic_bags(self):
        spec = SyntheticSpec(n_bags=50, dim=12, bag_min=2, bag_max=9, seed=21)
        bags = generate_synthetic(spec)
        for recal in (False, True):
            report = baseline_classify(bags, tau=80.0, recalibrate=recal)
            got = [row[4] for row in report.rows]
            assert got == brute_force_baseline(bags, 80.0, recal)
            acc = np.mean([int(p == b.label) for p, b in zip(got, bags)])
            assert report.accuracy == pytest.approx(acc)

    def test_huge_tau_predicts_all_negative(self):
        spec = SyntheticSpec(n_bags=10, dim=6, seed=2)
        bags = generate_synthetic(spec)
        report = baseline_classify(bags, tau=1e12, recalibrate=False)
        assert all(row[4] == 0 for row in report.rows)

    def test_order_invariance(self):
        spec = SyntheticSpec(n_bags=16, dim=6, seed=3)
        bags = generate_synthetic(spec)
        fwd = baseline_classify(bags, tau=50.0, recalibrate=True)
        rev = baseline_classify(list(reversed(bags)), tau=50.0, recalibrate=True)
        assert fwd.accuracy == rev.accuracy
        assert dict((r[0], r[3]) for r in fwd.rows) \
            == dict((r[0], r[3]) for r in rev.rows)
        # instance order inside a bag does not matter either
        shuffled = [make_bag(b.bag_id, b.label, b.features[::-1].copy())
                    for b in bags]
        shuf = baseline_classify(shuffled, tau=50.0, recalibrate=True)
        for a, b in zip(sorted(fwd.rows), sorted(shuf.rows)):
            assert a[3] == pytest.approx(b[3], abs=1e-9)


class TestDensityCsv:
    def test_row_count_and_format(self, tmp_path):
        spec = SyntheticSpec(n_bags=9, dim=5, seed=4)
        bags = generate_synthetic(spec)
        recs = compute_magnitudes(bags)
        out = tmp_path / "density.csv"
        write_density_csv(recs, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bag_id,label,mu_raw,mu_recal"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert len(first) == 4
        assert len(first[2].split(".")[1]) == 6  # six decimal places
