"""Differential tests: batched / fused codec paths vs the scalar loop.

Every multi-stripe batch API and every fused decode path must be
bit-identical to calling the per-stripe methods in a loop — GF
arithmetic is exact, so "close" is not a thing. This suite pins that
contract across code families, batch shapes (size 1, ragged tails),
failure patterns (data, parity, all-parity), and pattern-LRU churn.
"""

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.convertible import ConvertibleCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.rs import ReedSolomon
from repro.codes.wide import WideConvertibleCode
from repro.gf import kernels
from repro.gf.field16 import bytes_to_symbols, gf16_mul, symbols_to_bytes


def _stripes(k, n_stripes, chunk_bytes, seed=0, ragged=False):
    rng = np.random.default_rng(seed)
    out = []
    for s in range(n_stripes):
        size = chunk_bytes
        if ragged and s == n_stripes - 1:
            size = max(2, chunk_bytes // 2)
        out.append(
            [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]
        )
    return out


def _codes():
    return [
        ReedSolomon(4, 7),
        ConvertibleCode(4, 6),
        LocalReconstructionCode(6, 2, 2),
        LocallyRecoverableConvertibleCode(6, 2, 2),
        WideConvertibleCode(6, 9),
        BandwidthOptimalCC(4, 2, 4),
    ]


def _chunk_bytes(code):
    # BWO substripes need chunk_size % r_final == 0.
    return 8192 if isinstance(code, BandwidthOptimalCC) else 6000


class TestEncodeBatch:
    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_matches_per_stripe_loop(self, code):
        stripes = _stripes(code.k, 5, _chunk_bytes(code), seed=1)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert len(parities) == len(expected)
            for got, want in zip(parities, expected):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_batch_of_one(self, code):
        stripes = _stripes(code.k, 1, _chunk_bytes(code), seed=2)
        batched = code.encode_batch(stripes)
        expected = code.encode(stripes[0])
        assert all(
            np.array_equal(g, w) for g, w in zip(batched[0], expected)
        )

    def test_ragged_final_stripe(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 4, 6000, seed=3, ragged=True)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))

    def test_ragged_final_stripe_wide(self):
        code = WideConvertibleCode(6, 9)
        stripes = _stripes(6, 3, 6000, seed=4, ragged=True)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))

    def test_small_chunks_take_reference_path(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 3, 64, seed=5)
        batched = code.encode_batch(stripes)
        for chunks, parities in zip(stripes, batched):
            expected = code.encode(chunks)
            assert all(np.array_equal(g, w) for g, w in zip(parities, expected))


def _erasure_cases(code):
    """(erased, label) patterns: data-only, mixed, all-parity."""
    k, n = code.k, code.n
    r = n - k
    cases = [([0], "one_data"), ([k], "one_parity")]
    if r >= 2:
        cases.append(([0, k + 1], "data_plus_parity"))
        cases.append((list(range(k, min(n, k + r))), "all_parity"))
    return cases


class TestDecodeBatch:
    @pytest.mark.parametrize("code", _codes(), ids=lambda c: type(c).__name__)
    def test_matches_per_stripe_loop(self, code):
        stripes = _stripes(code.k, 4, _chunk_bytes(code), seed=6)
        parities = [code.encode(chunks) for chunks in stripes]
        for erased, label in _erasure_cases(code):
            availables, eraseds = [], []
            for chunks, pars in zip(stripes, parities):
                full = list(chunks) + list(pars)
                availables.append(
                    {i: c for i, c in enumerate(full) if i not in erased}
                )
                eraseds.append(list(erased))
            batched = code.decode_batch(availables, eraseds)
            for avail, chunks, pars, rec in zip(
                availables, stripes, parities, batched
            ):
                expected = code.decode(avail, erased)
                assert set(rec) == set(expected), label
                for idx in erased:
                    assert np.array_equal(rec[idx], expected[idx]), label
                    full = list(chunks) + list(pars)
                    assert np.array_equal(rec[idx], full[idx]), label

    def test_mixed_patterns_in_one_batch(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 6, 6000, seed=7)
        parities = [code.encode(chunks) for chunks in stripes]
        patterns = [[0], [0], [1, 4], [1, 4], [5, 6], [0]]
        availables, eraseds = [], []
        for chunks, pars, erased in zip(stripes, parities, patterns):
            full = list(chunks) + list(pars)
            availables.append(
                {i: c for i, c in enumerate(full) if i not in erased}
            )
            eraseds.append(erased)
        batched = code.decode_batch(availables, eraseds)
        for chunks, pars, erased, rec in zip(
            stripes, parities, patterns, batched
        ):
            full = list(chunks) + list(pars)
            for idx in erased:
                assert np.array_equal(rec[idx], full[idx])

    def test_batch_of_one_and_empty_erasure(self):
        code = ReedSolomon(4, 7)
        chunks = _stripes(4, 1, 6000, seed=8)[0]
        pars = code.encode(chunks)
        full = chunks + pars
        avail = {i: c for i, c in enumerate(full) if i != 2}
        out = code.decode_batch([avail, dict(enumerate(full))], [[2], []])
        assert np.array_equal(out[0][2], chunks[2])
        assert out[1] == {}

    def test_ragged_lengths_group_separately(self):
        code = ReedSolomon(4, 7)
        stripes = _stripes(4, 3, 6000, seed=9, ragged=True)
        availables, eraseds = [], []
        for chunks in stripes:
            full = chunks + code.encode(chunks)
            availables.append({i: c for i, c in enumerate(full) if i != 0})
            eraseds.append([0])
        batched = code.decode_batch(availables, eraseds)
        for chunks, rec in zip(stripes, batched):
            assert np.array_equal(rec[0], chunks[0])

    def test_lrc_batch_preserves_local_repair_result(self):
        code = LocalReconstructionCode(6, 2, 2)
        stripes = _stripes(6, 3, 6000, seed=10)
        availables, eraseds = [], []
        for chunks in stripes:
            full = chunks + code.encode(chunks)
            availables.append({i: c for i, c in enumerate(full) if i != 1})
            eraseds.append([1])
        batched = code.decode_batch(availables, eraseds)
        for chunks, rec in zip(stripes, batched):
            assert np.array_equal(rec[1], chunks[1])


class TestFusedDecode:
    def test_pattern_cache_hits_on_repeat(self):
        kernels.clear_plan_caches()
        code = ReedSolomon(4, 7)
        chunks = _stripes(4, 1, 6000, seed=11)[0]
        full = chunks + code.encode(chunks)
        avail = {i: c for i, c in enumerate(full) if i != 0}
        code.decode(avail, [0])
        before = kernels.cache_stats()["pattern_hits"]
        code.decode(avail, [0])
        assert kernels.cache_stats()["pattern_hits"] == before + 1

    def test_lru_eviction_churn_stays_correct(self):
        kernels.clear_plan_caches()
        code = ReedSolomon(6, 9)
        chunks = _stripes(6, 1, 6000, seed=12)[0]
        full = chunks + code.encode(chunks)
        # More distinct patterns than the LRU holds: every (erased pair)
        # of the 9 chunk positions (36 > capacity), twice over.
        patterns = [
            [i, j] for i in range(9) for j in range(i + 1, 9)
        ]
        for _ in range(2):
            for erased in patterns:
                avail = {
                    i: c for i, c in enumerate(full) if i not in erased
                }
                rec = code.decode(avail, erased)
                for idx in erased:
                    assert np.array_equal(rec[idx], full[idx])
        stats = kernels.cache_stats()
        assert len(patterns) > kernels._PATTERN_CACHE_MAX
        assert stats["pattern_evictions"] > 0

    def test_wide_fused_small_and_large_chunks_agree(self):
        code = WideConvertibleCode(6, 9)
        for size in (64, 50_000):  # reference path vs packed plan path
            chunks = _stripes(6, 1, size, seed=13)[0]
            full = chunks + code.encode(chunks)
            erased = [0, 4, 7]
            avail = {i: c for i, c in enumerate(full) if i not in erased}
            rec = code.decode(avail, erased)
            for idx in erased:
                assert np.array_equal(rec[idx], full[idx])

    def test_wide_decode_odd_length_chunks(self):
        code = WideConvertibleCode(6, 9)
        chunks = _stripes(6, 1, 4097, seed=14)[0]
        full = chunks + code.encode(chunks)
        avail = {i: c for i, c in enumerate(full) if i != 3}
        rec = code.decode(avail, [3])
        assert np.array_equal(rec[3], chunks[3])


class TestCombinedPlans:
    """Both plans match the reference at every output width, whichever
    kernel a plan dispatches to, and combined tables are power-of-two wide."""

    # Small tiles make the short operands below straddle tile edges at
    # every table width (1024 to 2048 symbols a tile).
    SMALL_TILE = 1 << 13
    # Lengths: tiny, odd, about one tile, several tiles plus a tail.
    NBYTES = (1, 3, 2047, 4096, 8199)

    @staticmethod
    def _coeffs(rng, m, k, high):
        coeffs = rng.integers(0, high, (m, k), dtype=np.int64)
        coeffs[:, 1] = 0  # an all-zero input column is skipped
        return coeffs

    def test_plans_match_reference(self, monkeypatch):
        from repro.gf.field16 import gf16_matmul_reference
        from repro.gf.matrix import gf_matmul_reference

        monkeypatch.setattr(kernels, "TILE_BYTES", self.SMALL_TILE)
        rng = np.random.default_rng(15)
        k = 5
        for m in range(1, kernels.COMBINE_MAX_ROWS + 2):
            a8 = self._coeffs(rng, m, k, 256).astype(np.uint8)
            a16 = self._coeffs(rng, m, k, 1 << 16).astype(np.uint16)
            plan8, plan16 = kernels.MulPlan8(a8), kernels.MulPlan16(a16)
            for n in self.NBYTES:
                b8 = rng.integers(0, 256, (k, n), dtype=np.uint8)
                assert np.array_equal(plan8.apply(b8), gf_matmul_reference(a8, b8))
                b16 = rng.integers(0, 1 << 16, (k, n), dtype=np.uint16)
                want = gf16_matmul_reference(a16, b16)
                assert np.array_equal(plan16.apply(b16), want)
                assert np.array_equal(plan16.apply_rows(list(b16)), want)

    def test_default_tile_straddle(self):
        from repro.gf.field16 import gf16_matmul_reference
        from repro.gf.matrix import gf_matmul_reference

        # m = 3 pads to 4 lanes: 2**22 / 16 = 262144 symbols a tile.
        rng = np.random.default_rng(14)
        a8 = rng.integers(1, 256, (3, 2), dtype=np.uint8)
        b8 = rng.integers(0, 256, (2, 2 * 262144 + 5), dtype=np.uint8)
        assert np.array_equal(
            kernels.MulPlan8(a8).apply(b8), gf_matmul_reference(a8, b8)
        )
        a16 = rng.integers(1, 1 << 16, (3, 2), dtype=np.uint16)
        b16 = rng.integers(0, 1 << 16, (2, 262144 + 3), dtype=np.uint16)
        assert np.array_equal(
            kernels.MulPlan16(a16).apply_rows(list(b16)),
            gf16_matmul_reference(a16, b16),
        )

    def test_table_rows_are_power_of_two(self):
        rng = np.random.default_rng(16)
        for m in range(1, kernels.COMBINE_MAX_ROWS + 1):
            for plan in (
                kernels.MulPlan8(rng.integers(1, 256, (m, 3), dtype=np.uint8)),
                kernels.MulPlan16(
                    rng.integers(1, 1 << 16, (m, 3), dtype=np.uint16)
                ),
            ):
                assert len(plan.tables) == 3
                for tab in plan.tables:
                    width = tab.shape[1]
                    assert tab.shape == (1 << 16, width)
                    assert width & (width - 1) == 0 and m <= width < 2 * m
                    assert not tab[:, m:].any()

    def test_resident_bytes_count_padding(self):
        kernels.clear_plan_caches()
        try:
            plan = ConvertibleCode(6, 9).encode_plan()
            # r = 3 parity rows pad to 4 lanes: 6 x (65536 x 4) uint16.
            assert plan.nbytes == 6 * (1 << 16) * 4 * 2 == 3 << 20
            stats = kernels.cache_stats()
            assert stats["plan8_bytes"] == plan.nbytes
            assert stats["resident_bytes"] >= plan.nbytes
        finally:
            kernels.clear_plan_caches()


class TestGf16ScaleXor:
    @pytest.mark.parametrize("c", [0, 1, 2, 0x1234, 0xFFFF])
    @pytest.mark.parametrize("n", [7, 2048, 70_000])
    def test_matches_mul_xor(self, c, n):
        from repro.gf.kernels import gf16_scale_xor

        rng = np.random.default_rng(17)
        acc = rng.integers(0, 1 << 16, n, dtype=np.uint16)
        x = rng.integers(0, 1 << 16, n, dtype=np.uint16)
        want = acc ^ gf16_mul(np.uint16(c), x)
        got = acc.copy()
        gf16_scale_xor(got, c, x)
        assert np.array_equal(got, want)


class TestWideMergeParities:
    def test_merge_matches_direct_encode(self):
        initial = WideConvertibleCode(4, 6)
        final = WideConvertibleCode(8, 10)
        stripes = _stripes(4, 2, 5000, seed=18)
        stripe_parities = [initial.encode(chunks) for chunks in stripes]
        merged = initial.merge_parities(final, stripe_parities)
        direct = final.encode(stripes[0] + stripes[1])
        for got, want in zip(merged, direct):
            assert np.array_equal(got, want)


class TestSymbolPacking:
    def test_view_mode_round_trips(self):
        rng = np.random.default_rng(19)
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        view = bytes_to_symbols(data, copy=False)
        copied = bytes_to_symbols(data)
        assert np.array_equal(view, copied)
        assert np.array_equal(symbols_to_bytes(view, len(data)), data)
        # The view aliases; the copy does not.
        assert view.base is not None

    def test_odd_length_always_private(self):
        rng = np.random.default_rng(20)
        data = rng.integers(0, 256, 4097, dtype=np.uint8)
        sym = bytes_to_symbols(data, copy=False)
        sym[0] ^= 0xFFFF  # must not corrupt the caller's buffer
        assert np.array_equal(
            symbols_to_bytes(bytes_to_symbols(data), 4097), data
        )
