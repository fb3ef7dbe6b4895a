"""Scaled-quantization tests: scalar-composition oracle, exact round trips,
block locality, and stall masks."""

import numpy as np
import pytest

from emastall.formats import (
    BF16,
    FP4_E2M1,
    FP4_E2M2U,
    FP8_E4M3,
    PRESETS,
    RoundingMode,
    decode,
    round_nearest,
    ulp_at,
)
from emastall.quantize import (
    QuantizedBlock,
    ScalingMode,
    ScalingScheme,
    dequantize,
    quantize,
    quantize_with_scales,
    stalled_fraction,
    stalled_mask,
)

PER_TENSOR = ScalingScheme(ScalingMode.PER_TENSOR)
BLOCK128 = ScalingScheme(ScalingMode.BLOCKWISE, 128)


def random_vector(fmt, rng, n=1000, spread=3.0):
    v = rng.standard_normal(n) * np.exp(rng.uniform(-spread, spread, n))
    return np.abs(v) if not fmt.sign_bits else v


class TestQuantizeBasics:
    def test_all_zero_block(self):
        q = quantize(np.zeros(16), FP4_E2M1, PER_TENSOR)
        assert np.all(q.scales == 0.0)
        assert np.all(q.codes == round_nearest(FP4_E2M1, 0.0).code)
        assert np.array_equal(dequantize(q), np.zeros(16))

    def test_all_zero_block_exclude_zero(self):
        q = quantize(np.zeros(16), FP4_E2M2U, PER_TENSOR)
        assert np.all(q.codes == round_nearest(FP4_E2M2U, 0.25).code)
        # absmax scale 0 still dequantizes to exact zeros
        assert np.array_equal(dequantize(q), np.zeros(16))

    def test_max_element_maps_to_format_max(self):
        rng = np.random.default_rng(2)
        for fmt in PRESETS.values():
            v = random_vector(fmt, rng, 256)
            q = quantize(v, fmt, PER_TENSOR)
            i = int(np.argmax(np.abs(v)))
            assert abs(decode(fmt, int(q.codes[i]))) == fmt.x_max
            assert abs(dequantize(q)[i]) == np.abs(v).max()

    def test_scalar_composition_oracle(self):
        # reference path: divide by the ratio scale, round_nearest, multiply back
        rng = np.random.default_rng(42)
        v = np.abs(rng.standard_normal(128)) * np.exp(rng.uniform(-2, 2, 128))
        q = quantize(v, FP4_E2M2U, PER_TENSOR, RoundingMode.NEAREST_EVEN)
        s_ratio = float(q.scales[0]) / FP4_E2M2U.x_max
        ref_codes = np.array(
            [round_nearest(FP4_E2M2U, float(x / s_ratio)).code for x in v]
        )
        assert np.array_equal(q.codes, ref_codes)
        ref_vals = np.array([decode(FP4_E2M2U, int(c)) * s_ratio for c in ref_codes])
        np.testing.assert_allclose(dequantize(q), ref_vals, rtol=1e-12)

    def test_scalar_composition_oracle_signed_blockwise(self):
        rng = np.random.default_rng(43)
        v = rng.standard_normal(300)
        q = quantize(v, FP4_E2M1, BLOCK128)
        per_elem = q.scales_per_element()
        for i, x in enumerate(v):
            s_ratio = per_elem[i] / FP4_E2M1.x_max
            assert q.codes[i] == round_nearest(FP4_E2M1, float(x / s_ratio)).code

    def test_rejects_nonfinite_and_empty(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.inf]), BF16, PER_TENSOR)
        with pytest.raises(ValueError):
            quantize(np.array([]), BF16, PER_TENSOR)
        with pytest.raises(ValueError):
            quantize_with_scales(np.array([1.0, np.nan]), BF16, PER_TENSOR, [1.0])

    def test_sr_requires_rng(self):
        with pytest.raises(ValueError):
            quantize(np.ones(4), BF16, PER_TENSOR, RoundingMode.STOCHASTIC)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=lambda f: f.name)
    @pytest.mark.parametrize("scheme", [PER_TENSOR, BLOCK128], ids=["tensor", "block"])
    def test_idempotence_exact(self, fmt, scheme):
        rng = np.random.default_rng(17)
        for trial in range(20):
            v = random_vector(fmt, rng, 500)
            q = quantize(v, fmt, scheme)
            d1 = dequantize(q)
            q2 = quantize(d1, fmt, scheme)
            assert np.array_equal(q.codes, q2.codes)
            assert np.array_equal(q.scales, q2.scales)
            assert np.array_equal(d1, dequantize(q2))

    def test_on_grid_vector_round_trips_identically(self):
        v = np.array([0.25, 0.5, 1.0, 3.5, 7.0])
        q = quantize(v, FP4_E2M2U, PER_TENSOR)
        np.testing.assert_allclose(dequantize(q), v, rtol=1e-15)

    def test_roundtrip_error_bound(self):
        # |dequantize(quantize(v)) - v| <= (ulp/2) * ratio-scale, exhaustively
        # over small vectors; elements under the exclude_zero clamp floor are
        # pinned to s_min and sit outside the bound's domain
        rng = np.random.default_rng(23)
        for fmt in (FP4_E2M2U, FP8_E4M3):
            for _ in range(50):
                v = np.abs(rng.standard_normal(16)) + 1e-3
                q = quantize(v, fmt, PER_TENSOR)
                back = dequantize(q)
                s_ratio = q.scales[0] / fmt.x_max
                floor = fmt.s_min * s_ratio if fmt.exclude_zero else 0.0
                smin_code = round_nearest(fmt, 0.0).code if fmt.exclude_zero else None
                for i in range(len(v)):
                    if v[i] < floor:
                        assert q.codes[i] == smin_code
                        continue
                    bound = ulp_at(fmt, int(q.codes[i])) / 2.0 * s_ratio
                    assert abs(back[i] - v[i]) <= bound * (1 + 1e-9)

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        v = rng.standard_normal(300)
        q = quantize(v, FP4_E2M1, BLOCK128)
        path = tmp_path / "block.json"
        q.save(path)
        q2 = QuantizedBlock.load(path)
        assert np.array_equal(q.codes, q2.codes)
        assert np.array_equal(q.scales, q2.scales)
        assert q2.format == FP4_E2M1 and q2.scheme == BLOCK128
        assert np.array_equal(dequantize(q), dequantize(q2))

    @pytest.mark.parametrize("fmt,key,edit", [
        (FP4_E2M1, "codes", lambda c: [1 << FP4_E2M1.width] + c[1:]),
        (FP4_E2M1, "codes", lambda c: [-1] + c[1:]),
        (FP4_E2M1, "codes", lambda c: [0.5] + c[1:]),
        (FP4_E2M2U, "codes", lambda c: [0] + c[1:]),  # decodes to NaN
        (FP4_E2M1, "codes", lambda c: []),
        (FP4_E2M1, "codes", lambda c: 3),
        (FP4_E2M1, "codes", lambda c: [[c]]),
        (FP4_E2M1, "scales", lambda s: s + [1.0]),  # 3 scales for 2 blocks
        (FP4_E2M1, "scales", lambda s: [-s[0], s[1]]),
        (FP4_E2M1, "scales", lambda s: [np.nan, s[1]]),
        (FP4_E2M1, "scales", lambda s: [s[0], np.inf]),
    ], ids=["wider", "negative", "float", "off-grid", "empty", "0-d", "3-d",
            "scale-count", "negative-scale", "nan-scale", "inf-scale"])
    def test_load_rejects_codes_wider_than_format(self, fmt, key, edit):
        # what quantize_with_scales rejects cannot come back from a file
        d = quantize(np.linspace(0.5, 2.0, 200), fmt, BLOCK128).to_json_dict()
        d[key] = edit(d[key])
        with pytest.raises(ValueError):
            QuantizedBlock.from_json_dict(d)


class TestInvariances:
    def test_positive_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(31)
        v = rng.standard_normal(512)
        base = quantize(v, FP4_E2M1, PER_TENSOR)
        for c in (2.0**-12, 0.5, 2.0, 1024.0):
            q = quantize(c * v, FP4_E2M1, PER_TENSOR)
            assert np.array_equal(q.codes, base.codes)
            assert np.all(q.scales == c * base.scales)

    def test_positive_scale_invariance_generic_constants(self):
        rng = np.random.default_rng(37)
        v = rng.standard_normal(512)
        base = quantize(v, FP8_E4M3, PER_TENSOR)
        for c in (3.0, 7.5, 0.1):
            q = quantize(c * v, FP8_E4M3, PER_TENSOR)
            assert np.array_equal(q.codes, base.codes), c

    def test_block_locality(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal(384)
        q1 = quantize(v, FP4_E2M1, BLOCK128)
        w = v.copy()
        w[:128] *= 5.0  # perturb only the first block
        q2 = quantize(w, FP4_E2M1, BLOCK128)
        assert np.array_equal(q1.codes[128:], q2.codes[128:])
        assert np.array_equal(q1.scales[1:], q2.scales[1:])

    def test_sr_conditional_unbiasedness_fixed_scale(self):
        rng = np.random.default_rng(47)
        scales = np.array([4.0])
        x = np.full(20_000, 1.7)
        draws = quantize_with_scales(
            x, FP4_E2M2U, PER_TENSOR, scales, RoundingMode.STOCHASTIC, rng
        )
        vals = dequantize(draws)
        support = set(np.unique(vals))
        assert len(support) == 2
        lo, hi = sorted(support)
        p = (1.7 - lo) / (hi - lo)
        sigma = (hi - lo) * np.sqrt(p * (1 - p) / len(x))
        assert abs(vals.mean() - 1.7) < 3 * sigma


class TestStalledMask:
    def _pair(self, v1, v2, fmt=FP4_E2M1, scheme=PER_TENSOR):
        return quantize(v1, fmt, scheme), quantize(v2, fmt, scheme)

    def test_identical_blocks_fully_stalled(self):
        rng = np.random.default_rng(53)
        v = rng.standard_normal(64)
        q1, q2 = self._pair(v, v.copy())
        assert stalled_fraction(q1, q2) == 1.0

    def test_every_code_changed(self):
        q1 = quantize(np.array([1.0, 2.0, 3.0, 4.0]), FP4_E2M1, PER_TENSOR)
        q2 = quantize(np.array([-1.0, -2.0, -3.0, -4.0]), FP4_E2M1, PER_TENSOR)
        assert stalled_fraction(q1, q2) == 0.0

    def test_constructed_fixture_exact_mask(self):
        v1 = np.array([0.6, 1.0, 2.0, 4.0])
        v2 = np.array([0.6, 1.5, 2.5, 4.0])  # indices 1 and 2 move
        q1, q2 = self._pair(v1, v2)
        assert q1.scales[0] == q2.scales[0] == 4.0
        assert list(stalled_mask(q1, q2)) == [True, False, False, True]

    def test_scale_change_unstalls_with_scale_comparison(self):
        v1 = np.array([1.0, 2.0, 4.0])
        v2 = np.array([1.25, 2.5, 5.0])  # same shape, larger absmax
        q1, q2 = self._pair(v1, v2)
        assert np.array_equal(q1.codes, q2.codes)
        assert stalled_fraction(q1, q2, include_scale=True) == 0.0
        assert stalled_fraction(q1, q2, include_scale=False) == 1.0

    def test_mismatch_errors(self):
        q1 = quantize(np.ones(4), FP4_E2M1, PER_TENSOR)
        q2 = quantize(np.ones(8), FP4_E2M1, PER_TENSOR)
        with pytest.raises(ValueError):
            stalled_mask(q1, q2)
        q3 = quantize(np.ones(4), FP8_E4M3, PER_TENSOR)
        with pytest.raises(ValueError):
            stalled_mask(q1, q3)


def row_stack(fmt, rng, dim):
    """Three random rows and an all-zero one."""
    rows = [random_vector(fmt, rng, dim) for _ in range(3)]
    rows.insert(1, np.zeros(dim))
    return np.stack(rows)


def assert_rows_match(batched, singles):
    assert batched.codes.dtype == singles[0].codes.dtype
    assert np.array_equal(batched.codes, np.stack([s.codes for s in singles]))
    assert np.array_equal(batched.scales, np.stack([s.scales for s in singles]))
    read = np.stack([dequantize(s) for s in singles])
    assert np.array_equal(dequantize(batched), read)


class TestRows:
    """A (rows, dim) array quantizes, reads and compares exactly as its rows
    do one at a time; stochastic rounding consumes the stream row after row."""

    @pytest.mark.parametrize("dim", [200, 1, 256])
    @pytest.mark.parametrize("scheme", [PER_TENSOR, BLOCK128], ids=["tensor", "block"])
    @pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_rows_equal_row_by_row(self, name, mode, scheme, dim):
        fmt = PRESETS[name]
        rng = np.random.default_rng([dim, len(name)])
        x = row_stack(fmt, rng, dim)

        stream = np.random.default_rng(7)
        q = quantize(x, fmt, scheme, mode, np.random.default_rng(7))
        singles = [quantize(row, fmt, scheme, mode, stream) for row in x]
        assert_rows_match(q, singles)

        # a frozen-scale row anchored at x_max among recomputed ones
        frozen = q.scales.copy()
        frozen[2] = fmt.x_max
        stream = np.random.default_rng(9)
        qf = quantize_with_scales(
            x, fmt, scheme, frozen, mode, np.random.default_rng(9)
        )
        assert_rows_match(qf, [
            quantize_with_scales(row, fmt, scheme, s, mode, stream)
            for row, s in zip(x, frozen)
        ])

        y = x * np.where(rng.random(x.shape) < 0.5, 1.0, 1.1)
        q2 = quantize(y, fmt, scheme)
        singles2 = [quantize(row, fmt, scheme) for row in y]
        for include_scale in (True, False):
            mask = stalled_mask(q, q2, include_scale)
            pairs = zip(singles, singles2)
            rows = [stalled_mask(a, b, include_scale) for a, b in pairs]
            assert np.array_equal(mask, np.stack(rows))

    @pytest.mark.parametrize(
        "values,scheme,scales",
        [
            (np.ones((2, 2, 4)), PER_TENSOR, np.ones((2, 2, 1))),
            (np.ones((0, 4)), PER_TENSOR, np.ones((0, 1))),
            (np.ones((2, 0)), BLOCK128, np.ones((2, 0))),
            # per-tensor rows take one scale per row, as a column
            (np.ones((2, 4)), PER_TENSOR, np.ones(2)),
            (np.ones((2, 300)), BLOCK128, np.ones((2, 2))),
            (np.ones((2, 300)), BLOCK128, np.ones(3)),
        ],
        ids=["3d", "zero-rows", "zero-dim", "flat-scales", "few-blocks", "1d-scales"],
    )
    def test_malformed_input_rejected(self, values, scheme, scales):
        with pytest.raises(ValueError):
            quantize_with_scales(values, FP4_E2M1, scheme, scales)
        if values.ndim != 2 or values.size == 0:
            with pytest.raises(ValueError):
                quantize(values, FP4_E2M1, scheme)

    def test_row_count_mismatch_rejected(self):
        q2 = quantize(np.ones((2, 4)), FP4_E2M1, PER_TENSOR)
        q3 = quantize(np.ones((3, 4)), FP4_E2M1, PER_TENSOR)
        with pytest.raises(ValueError):
            stalled_mask(q2, q3)
