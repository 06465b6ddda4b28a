"""Unit and property tests for the oracle's canonical WAH codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitSet, indices_to_words
from repro.core.wah_kernels import GROUP_BITS
from repro.errors import BitSetError
from wah_oracle import WahBitmap


class TestRoundTrip:
    def test_empty(self):
        w = WahBitmap.zeros(100)
        assert w.to_bitset() == BitSet.zeros(100)
        assert w.count() == 0

    def test_zero_universe(self):
        w = WahBitmap.zeros(0)
        assert w.count() == 0
        assert w.to_bitset().n == 0

    def test_single_bit(self):
        w = WahBitmap.from_indices(100, [42])
        assert sorted(w.to_bitset()) == [42]
        assert w.count() == 1

    def test_full(self):
        full = BitSet.ones(100)
        w = WahBitmap.from_bitset(full)
        assert w.to_bitset() == full
        assert w.count() == 100

    def test_group_boundary_sizes(self):
        for n in (GROUP_BITS - 1, GROUP_BITS, GROUP_BITS + 1,
                  2 * GROUP_BITS, 2 * GROUP_BITS + 5):
            s = BitSet.from_indices(n, [0, n - 1])
            w = WahBitmap.from_bitset(s)
            assert w.to_bitset() == s, f"n={n}"


class TestCompression:
    def test_sparse_compresses(self):
        # one set bit in a large universe: long zero fills dominate
        w = WahBitmap.from_indices(31 * 1000, [5])
        assert len(w.wah_words()) <= 4

    def test_dense_compresses(self):
        w = WahBitmap.from_bitset(BitSet.ones(31 * 1000))
        assert len(w.wah_words()) <= 2
        # all-ones is a single one-fill word
        n = GROUP_BITS * 8
        ones = WahBitmap.from_indices(n, range(n))
        assert ones.wah_words().tolist() == [(1 << 31) | (1 << 30) | 8]

    def test_alternating_does_not_blow_up(self):
        n = 31 * 40
        s = BitSet.from_indices(n, range(0, n, 2))
        w = WahBitmap.from_bitset(s)
        # incompressible pattern: at most one word per group
        assert len(w.wah_words()) <= 40

    def test_canonical_equal_bitmaps_equal_words(self):
        a = WahBitmap.from_indices(500, [3, 77, 400])
        b = WahBitmap.from_indices(500, [400, 3, 77])
        assert a == b


class TestConstructionValidation:
    """Regression: a truncated or padded word stream used to surface
    only later as a confusing group-count error from count() (or as a
    wrong __eq__); now construction validates coverage."""

    def test_truncated_stream_rejected(self):
        good = WahBitmap.from_indices(200, [1, 63, 150])
        words = good._words[:-1]
        with pytest.raises(BitSetError, match="group"):
            WahBitmap(200, words)

    def test_over_long_stream_rejected(self):
        good = WahBitmap.from_indices(200, [1])
        with pytest.raises(BitSetError, match="expected"):
            WahBitmap(200, list(good._words) + [0])

    def test_zero_length_fill_rejected(self):
        # a bare fill flag encodes a zero-group run: meaningless
        with pytest.raises(BitSetError, match="zero run length"):
            WahBitmap(GROUP_BITS, [1 << 31])

    def test_out_of_range_word_rejected(self):
        with pytest.raises(BitSetError, match="32-bit"):
            WahBitmap(GROUP_BITS, [1 << 32])
        with pytest.raises(BitSetError, match="32-bit"):
            WahBitmap(GROUP_BITS, [-1])

    def test_nonempty_words_on_empty_universe_rejected(self):
        with pytest.raises(BitSetError):
            WahBitmap(0, [0])

    def test_valid_stream_accepted(self):
        good = WahBitmap.from_indices(200, [1, 63, 150])
        rebuilt = WahBitmap(200, list(good._words))
        assert rebuilt == good

    def test_message_is_precise(self):
        with pytest.raises(
            BitSetError,
            match=r"covers 1 group\(s\), expected 4 for a 100-bit",
        ):
            WahBitmap(100, [0])

    def test_one_fill_into_padding_rejected(self):
        # a one-fill spanning the padded final group would make
        # count() exceed n and iter_indices() yield indices >= n
        one_fill_3 = (1 << 31) | (1 << 30) | 3
        with pytest.raises(BitSetError, match="padding"):
            WahBitmap(67, [one_fill_3])

    def test_literal_with_padding_bits_rejected(self):
        with pytest.raises(BitSetError, match="padding"):
            WahBitmap(32, [0, 1 << 30])

    def test_zero_fill_over_padded_tail_accepted(self):
        w = WahBitmap(67, [(1 << 31) | 3])
        assert w.count() == 0

    def test_full_final_group_without_padding_accepted(self):
        # n a multiple of the group size: a one-fill tail is legal
        n = 2 * GROUP_BITS
        w = WahBitmap(n, [(1 << 31) | (1 << 30) | 2])
        assert w.count() == n


class TestWordConversions:
    def test_from_words_roundtrip(self):
        words = indices_to_words([0, 5, 64, 120, 200], 256)
        w = WahBitmap.from_words(words)
        assert w.n == 256
        assert np.array_equal(w.to_words(), words)

    def test_from_words_with_explicit_n(self):
        words = indices_to_words([3], 40)
        w = WahBitmap.from_words(words, 40)
        assert w.n == 40
        assert sorted(w.to_bitset()) == [3]

    def test_from_words_empty(self):
        w = WahBitmap.from_words(np.zeros(0, dtype=np.uint64))
        assert w.n == 0 and w.count() == 0


class TestIterIndices:
    def test_matches_bitset_iteration(self):
        idx = [0, 1, 30, 31, 32, 62, 99, 300, 301, 929]
        w = WahBitmap.from_indices(31 * 30, idx)
        assert list(w.iter_indices()) == idx
        assert list(w) == idx

    def test_one_fill_run(self):
        n = GROUP_BITS * 4
        w = WahBitmap.from_bitset(BitSet.ones(n))
        assert list(w.iter_indices()) == list(range(n))

    def test_empty(self):
        assert list(WahBitmap.zeros(500).iter_indices()) == []

    def test_never_yields_padding(self):
        # n not a multiple of the group size: the final group is padded
        n = GROUP_BITS * 3 + 5
        w = WahBitmap.from_bitset(BitSet.ones(n))
        assert max(w.iter_indices()) == n - 1
        assert w.count() == n


# ---------------------------------------------------------------------------
# properties: WAH must be a faithful, canonical codec
# ---------------------------------------------------------------------------

@st.composite
def bitset_and_indices(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    idx = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
    )
    return n, idx


@settings(max_examples=40, deadline=None)
@given(bitset_and_indices())
def test_roundtrip_property(t):
    n, idx = t
    s = BitSet.from_indices(n, idx)
    assert WahBitmap.from_bitset(s).to_bitset() == s


@settings(max_examples=40, deadline=None)
@given(bitset_and_indices())
def test_count_matches_uncompressed(t):
    n, idx = t
    s = BitSet.from_indices(n, idx)
    assert WahBitmap.from_bitset(s).count() == s.count()


# ---------------------------------------------------------------------------
# randomized equivalence suite: seeded sparse/dense bitmaps, every
# decode checked against the uncompressed BitSet truth
# ---------------------------------------------------------------------------

#: (universe size, fill density) grid — the sparse end mirrors the
#: paper's genome-scale common-neighbor strings, the dense end the
#: one-fill regime, and 0.5 the incompressible literal regime.
RANDOM_CASES = [
    (n, density)
    for n in (1, 31, 32, 63, 100, 500, 2001)
    for density in (0.01, 0.1, 0.5, 0.9, 0.99)
]


def _random_bitset(rng: np.random.RandomState, n: int, density: float):
    mask = rng.random_sample(n) < density
    return BitSet.from_indices(n, np.flatnonzero(mask))


@pytest.mark.parametrize("n,density", RANDOM_CASES)
def test_random_ops_match_bitset(n, density):
    rng = np.random.RandomState(hash((n, density)) % (2**32))
    for _ in range(8):
        sa = _random_bitset(rng, n, density)
        sb = _random_bitset(rng, n, density)
        wa, wb = WahBitmap.from_bitset(sa), WahBitmap.from_bitset(sb)
        assert wa.to_bitset() == sa and wb.to_bitset() == sb
        assert wa.count() == sa.count()
        assert list(wa.iter_indices()) == sa.to_indices().tolist()


@pytest.mark.parametrize("n,density", RANDOM_CASES)
def test_random_decode_reencode_is_canonical(n, density):
    """decode -> re-encode reproduces the exact word sequence."""
    # numbers only: a str in the key would hash per PYTHONHASHSEED; the
    # trailing 1 keeps this stream apart from the sibling test's
    rng = np.random.RandomState(hash((n, density, 1)) % (2**32))
    for _ in range(8):
        sa = _random_bitset(rng, n, density)
        sb = _random_bitset(rng, n, density)
        for w in (WahBitmap.from_bitset(sa), WahBitmap.from_bitset(sb)):
            reencoded = WahBitmap.from_bitset(w.to_bitset())
            assert np.array_equal(reencoded._words, w._words)
            assert reencoded == w
