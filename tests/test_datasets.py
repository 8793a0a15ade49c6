"""Synthetic generators: geometry, noise statistics, and CSV exchange."""
import re
import warnings

import numpy as np
import pytest

from robustlab.datasets import (
    Dataset,
    DomainBox,
    gen_gaussian_blobs,
    gen_rings,
    gen_two_moons,
    load_csv,
    rescale_inverse,
    save_csv,
    split_dataset,
)
from robustlab.errors import ParameterError, ParseError, SchemaError
from robustlab.tensor import Tensor, _check_labels


def moon_arc_distance(points: np.ndarray, label: int) -> np.ndarray:
    """Exact distance to the labeled parametric arc (pre-rescale coords).

    Arc 0: upper unit half-circle at the origin. Arc 1: lower unit
    half-circle centered (1, 0.5) (the first arc flipped and offset by
    (1, -0.5)).
    """
    if label == 0:
        q = points
        upper = q[:, 1] >= 0
    else:
        q = points - np.array([1.0, 0.5])
        upper = q[:, 1] <= 0
    radial = np.abs(np.hypot(q[:, 0], q[:, 1]) - 1.0)
    d_end = np.minimum(
        np.hypot(q[:, 0] - 1.0, q[:, 1]), np.hypot(q[:, 0] + 1.0, q[:, 1])
    )
    return np.where(upper, radial, d_end)


class TestTwoMoons:
    def test_balance_n4(self):
        ds = gen_two_moons(4, 0.0, seed=0)
        assert np.bincount(ds.labels, minlength=2).tolist() == [2, 2]

    def test_noiseless_points_on_arcs(self):
        ds = gen_two_moons(200, 0.0, seed=3)
        pre = rescale_inverse(ds)
        for label in (0, 1):
            d = moon_arc_distance(pre[ds.labels == label], label)
            assert d.max() < 1e-12

    def test_noise_rms_matches_its_own_model(self):
        # Monte-Carlo: with sigma=0.1, arc-distance RMS per class ~ sigma.
        ds = gen_two_moons(2000, 0.1, seed=5)
        pre = rescale_inverse(ds)
        for label in (0, 1):
            d = moon_arc_distance(pre[ds.labels == label], label)
            rms = float(np.sqrt(np.mean(d**2)))
            assert 0.07 <= rms <= 0.13

    def test_odd_n_rejected(self):
        with pytest.raises(ParameterError):
            gen_two_moons(5, 0.1, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            gen_two_moons(4, -0.1, seed=0)


class TestBlobs:
    CENTERS = [[0.25, 0.25], [0.75, 0.75]]

    def test_sigma_zero_points_equal_centers(self):
        ds = gen_gaussian_blobs(10, self.CENTERS, 0.0, seed=1)
        for i, c in enumerate(self.CENTERS):
            np.testing.assert_array_equal(
                ds.points.data[ds.labels == i], np.tile(c, (5, 1))
            )

    def test_separable_by_nearest_center(self):
        ds = gen_gaussian_blobs(200, self.CENTERS, 0.02, seed=2)
        centers = np.asarray(self.CENTERS)
        nearest = np.argmin(
            ((ds.points.data[:, None, :] - centers[None]) ** 2).sum(-1), axis=1
        )
        assert np.mean(nearest == ds.labels) == 1.0

    def test_class_means_within_clt_bound(self):
        sigma, n = 0.05, 1000
        ds = gen_gaussian_blobs(n, self.CENTERS, sigma, seed=3)
        for i, c in enumerate(self.CENTERS):
            mean = ds.points.data[ds.labels == i].mean(axis=0)
            assert np.all(np.abs(mean - c) < 4 * sigma / np.sqrt(n / 2))

    def test_centers_outside_box_rejected(self):
        with pytest.raises(ParameterError):
            gen_gaussian_blobs(4, [[0.5, 0.5], [1.5, 0.5]], 0.1, seed=0)

    def test_n_must_divide(self):
        with pytest.raises(ParameterError):
            gen_gaussian_blobs(5, self.CENTERS, 0.1, seed=0)

    def test_single_center_rejected(self):
        with pytest.raises(ParameterError):
            gen_gaussian_blobs(4, [[0.5, 0.5]], 0.1, seed=0)

    @pytest.mark.parametrize("centers", [[[0.3, 0.3], [0.7]], [[0.3, 0.3], ["x", 0.7]]],
                             ids=["ragged", "non-numeric"])
    def test_centers_must_be_a_rectangular_list_of_numbers(self, centers):
        with pytest.raises(ParameterError, match="rectangular list of numbers"):
            gen_gaussian_blobs(4, centers, 0.1, seed=0)


class TestRings:
    def test_noiseless_radii(self):
        ds = gen_rings(100, (0.5, 1.0), 0.0, seed=4)
        pre = rescale_inverse(ds)
        r = np.hypot(pre[:, 0], pre[:, 1])
        assert np.abs(r[ds.labels == 0] - 0.5).max() < 1e-12
        assert np.abs(r[ds.labels == 1] - 1.0).max() < 1e-12

    def test_balance_n6(self):
        ds = gen_rings(6, (0.5, 1.0), 0.0, seed=0)
        assert np.bincount(ds.labels, minlength=2).tolist() == [3, 3]

    def test_radial_std(self):
        ds = gen_rings(2000, (0.5, 1.0), 0.02, seed=6)
        pre = rescale_inverse(ds)
        r = np.hypot(pre[:, 0], pre[:, 1])
        for label, target in ((0, 0.5), (1, 1.0)):
            std = float(np.std(r[ds.labels == label] - target))
            assert 0.015 <= std <= 0.025

    def test_radii_order_enforced(self):
        with pytest.raises(ParameterError):
            gen_rings(4, (1.0, 0.5), 0.0, seed=0)


class TestGeneratorContracts:
    @pytest.mark.parametrize(
        "gen",
        [
            lambda seed: gen_two_moons(400, 0.15, seed),
            lambda seed: gen_gaussian_blobs(400, [[0.2, 0.2], [0.8, 0.8]], 0.1, seed),
            lambda seed: gen_rings(400, (0.4, 0.9), 0.05, seed),
        ],
        ids=["moons", "blobs", "rings"],
    )
    def test_containment_determinism_and_seed_sensitivity(self, gen):
        a, b, c = gen(7), gen(7), gen(8)
        assert a.domain.contains(a.points.data)  # exact, no tolerance
        np.testing.assert_array_equal(a.points.data, b.points.data)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.points.data, c.points.data)

    @pytest.mark.parametrize(
        "gen",
        [
            lambda seed: gen_two_moons(4, 0.15, seed),
            lambda seed: gen_gaussian_blobs(4, [[0.2, 0.2], [0.8, 0.8]], 0.1, seed),
            lambda seed: gen_rings(4, (0.4, 0.9), 0.05, seed),
            lambda seed: split_dataset(gen_two_moons(4, 0.15, 0), 2, seed),
        ],
        ids=["moons", "blobs", "rings", "split"],
    )
    def test_negative_seed_rejected(self, gen):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            gen(-1)

    @pytest.mark.parametrize(
        "gen",
        [
            lambda noise: gen_two_moons(4, noise, 0),
            lambda noise: gen_gaussian_blobs(4, [[0.2, 0.2], [0.8, 0.8]], noise, 0),
            lambda noise: gen_rings(4, (0.4, 0.9), noise, 0),
        ],
        ids=["moons", "blobs", "rings"],
    )
    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, gen, noise):
        with pytest.raises(ParameterError, match="must be finite and >= 0"):
            gen(noise)

    @pytest.mark.parametrize(
        "gen",
        [
            lambda noise: gen_two_moons(10, noise, 0),
            lambda noise: gen_gaussian_blobs(10, [[0.2, 0.2], [0.8, 0.8]], noise, 0),
            lambda noise: gen_rings(10, (0.4, 0.9), noise, 0),
        ],
        ids=["moons", "blobs", "rings"],
    )
    def test_finite_noise_that_overflows_names_the_noise(self, gen):
        # Warnings become errors here: numpy must not warn on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"noise sigma 1e\+308 is too large"):
                gen(1e308)

    def test_split_dataset(self):
        ds = gen_two_moons(100, 0.1, seed=1)
        train, test = split_dataset(ds, 70, seed=2)
        assert len(train) == 70 and len(test) == 30
        combined = np.concatenate([train.points.data, test.points.data])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, ds.points.data))


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_two_moons(50, 0.1, seed=9)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.points.data, ds.points.data)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.domain == ds.domain
        assert back.num_classes == ds.num_classes
        assert back.meta == ds.meta

    def test_non_numeric_cell_reports_line(self, tmp_path):
        ds = gen_two_moons(4, 0.0, seed=0)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[-1] = "0.5,abc,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.line == len(lines)

    def test_label_beyond_int64_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# num_classes = 2\n# domain_lower = 0 0\n# domain_upper = 1 1\n"
                        "x0,x1,label\n0.5,0.5,1\n0.5,0.5,99999999999999999999\n")
        with pytest.raises(ParseError, match="does not fit in int64") as exc:
            load_csv(path)
        assert exc.value.line == 6

    def test_label_equal_to_c_is_schema_error(self, tmp_path):
        ds = gen_two_moons(4, 0.0, seed=0)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[-1] = "0.5,0.5,2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# num_classes = 2\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# num_classes = 2\n# domain_lower = 0 0\n# domain_upper = 1 1\na,b,c\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_point_outside_domain_is_schema_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# num_classes = 2\n# domain_lower = 0 0\n# domain_upper = 1 1\n"
            "x0,x1,label\n1.5,0.5,0\n"
        )
        with pytest.raises(SchemaError):
            load_csv(path)


class TestDomainBox:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ParameterError):
            DomainBox((0.0, 1.0), (1.0, 1.0))

    def test_dataset_needs_at_least_one_point(self):
        with pytest.raises(ParameterError, match=r"^a dataset needs at least one point, got 0$"):
            Dataset(points=Tensor(np.empty((0, 2))), labels=np.array([], dtype=np.int64),
                    domain=DomainBox.unit(2), num_classes=2)
        with pytest.raises(ParameterError, match="at least one point"):
            gen_two_moons(4, 0.0, seed=0).take([])

    def test_dataset_invariants(self):
        box = DomainBox.unit(2)
        with pytest.raises(ParameterError):
            Dataset(
                points=Tensor([[0.5, 0.5]]), labels=np.array([5]),
                domain=box, num_classes=2,
            )
        with pytest.raises(ParameterError):
            Dataset(
                points=Tensor([[1.5, 0.5]]), labels=np.array([0]),
                domain=box, num_classes=2,
            )

    @pytest.mark.parametrize("dtype", ["m8[s]", "f8", "bool"])
    def test_labels_must_be_integers_by_the_package_rule(self, dtype):
        # timedelta64 passes np.issubdtype(..., np.integer); no label check of the package takes it.
        labels = np.array([0, 1], dtype=dtype)
        message = f"^labels must be integers, got dtype {re.escape(str(labels.dtype))}$"
        with pytest.raises(ParameterError, match=message):
            Dataset(points=Tensor([[0.1, 0.2], [0.3, 0.4]]), labels=labels, domain=DomainBox.unit(2), num_classes=2)
        with pytest.raises(ParameterError, match=message):
            _check_labels(labels, 2, 2)
