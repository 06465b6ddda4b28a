"""The oracle's scalar WAH kernels against the BitSet truth.

The batch kernels are replayed against these scalar kernels, so they
are held here to the edge cases the compressed-domain generation step
leans on: canonical output equal to the encoder's for every bit
pattern (the AND word for word against the encoding of the expected
set), fill-run skipping across word boundaries, alternating
literal/fill runs, all-ones fills, and universes that are not a
multiple of the 31-bit group size.  Every property is checked both on
hand-built shapes and randomized against the uncompressed
:class:`~repro.core.bitset.BitSet` as the oracle.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import BitSetError
from repro.core.bitset import BitSet
from repro.core.wah_kernels import GROUP_BITS, WahScratch
from wah_oracle import (
    WahBitmap,
    wah_and_any,
    wah_and_into,
    wah_indices_above,
)

#: universes spanning the boundary cases: empty, sub-group, exact
#: group/word multiples, and large not-a-multiple-of-31 sizes.
UNIVERSES = [0, 1, 30, 31, 32, 62, 63, 64, 93, 100, 128, 500, 2000]


def _n_groups(n: int) -> int:
    return (n + GROUP_BITS - 1) // GROUP_BITS


def _random_indices(rng, n, density):
    return [i for i in range(n) if rng.random() < density]


class TestKernelOracle:
    """Randomized equivalence with the BitSet algebra."""

    @pytest.mark.parametrize("seed", range(4))
    def test_and_kernels_match_bitset(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.choice(UNIVERSES)
            ia = _random_indices(
                rng, n, rng.choice([0.0, 0.01, 0.2, 0.5, 0.95, 1.0])
            )
            ib = _random_indices(
                rng, n, rng.choice([0.0, 0.02, 0.3, 0.9, 1.0])
            )
            a, b = WahBitmap.from_indices(n, ia), WahBitmap.from_indices(
                n, ib
            )
            ng = _n_groups(n)
            expected = sorted(set(ia) & set(ib))
            out = wah_and_into(a.wah_words(), b.wah_words(), ng)
            # canonical: kernel output == encoder output, byte for byte
            assert out == WahBitmap.from_indices(
                n, expected
            ).wah_words().tolist()
            assert sorted(WahBitmap(n, out).iter_indices()) == expected
            assert wah_and_any(
                a.wah_words(), b.wah_words(), ng
            ) == bool(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_indices_above_and_sorted_encode(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(60):
            n = rng.choice([u for u in UNIVERSES if u])
            idx = _random_indices(rng, n, rng.choice([0.01, 0.3, 1.0]))
            bm = WahBitmap.from_indices(n, idx)
            lo = rng.randrange(-1, n)
            assert list(wah_indices_above(bm.wah_words(), lo)) == [
                i for i in idx if i > lo
            ]

    def test_kernel_and_matches_bitset_words(self):
        """End to end through the uint64 word layout the hot loops use."""
        rng = random.Random(9)
        for n in (64, 100, 500):
            wa = BitSet.from_indices(n, _random_indices(rng, n, 0.1))
            wb = BitSet.from_indices(n, _random_indices(rng, n, 0.4))
            a = WahBitmap.from_words(wa.words, n)
            b = WahBitmap.from_words(wb.words, n)
            out = wah_and_into(
                a.wah_words(), b.wah_words(), _n_groups(n)
            )
            assert np.array_equal(
                WahBitmap(n, out).to_words(), (wa & wb).words
            )


class TestEdgeCases:
    """The shapes the compressed-domain step leans on."""

    def test_zero_length_fill_rejected_at_word_boundary(self):
        """A fill of run length zero is invalid wherever it appears —
        including exactly at a group/word boundary."""
        zero_fill = 1 << 31  # fill flag, bit 0, length 0
        with pytest.raises(BitSetError, match="zero run length"):
            WahBitmap(GROUP_BITS * 2, [0b1, zero_fill, 0b1])
        with pytest.raises(BitSetError, match="zero run length"):
            WahBitmap(GROUP_BITS, [zero_fill])
        # and a zero-length fill can never round-trip out of the encoder
        for n in (31, 62, 64, 2000):
            bm = WahBitmap.from_indices(n, range(0, n, 7))
            assert all(
                (w >> 31) == 0 or (w & ((1 << 30) - 1)) > 0
                for w in bm.wah_words()
            )

    def test_alternating_literal_and_fill_runs(self):
        """A bitmap alternating sparse groups with long fills exercises
        every reader-state transition of the merge kernels."""
        n = GROUP_BITS * 40
        # literal, zero-fill, one-fill, literal, zero-fill ...
        idx: list[int] = []
        for block in range(0, 40, 4):
            base = block * GROUP_BITS
            idx.append(base + 3)                       # literal group
            # block+1 empty (zero fill)
            idx.extend(
                range(base + 2 * GROUP_BITS, base + 3 * GROUP_BITS)
            )                                          # one-fill group
            # block+3 empty
        a = WahBitmap.from_indices(n, idx)
        b = WahBitmap.from_indices(n, range(0, n, 2))
        ng = _n_groups(n)
        expected = sorted(set(idx) & set(range(0, n, 2)))
        out = wah_and_into(a.wah_words(), b.wah_words(), ng)
        assert out == WahBitmap.from_indices(
            n, expected
        ).wah_words().tolist()
        assert list(wah_indices_above(a.wah_words(), idx[0])) == [
            i for i in idx if i > idx[0]
        ]

    @pytest.mark.parametrize("n", [1, 30, 32, 64, 100, 2000])
    def test_universe_not_a_multiple_of_31(self, n):
        """Partial final groups: padding stays zero through the kernels
        and out-of-universe indices are rejected."""
        assert n % GROUP_BITS != 0
        idx = [0, n - 1] if n > 1 else [0]
        bm = WahBitmap.from_indices(n, idx)
        out = wah_and_into(
            bm.wah_words(), bm.wah_words(), _n_groups(n)
        )
        # ANDing with itself round-trips, and the result revalidates
        # (including the padding-bits-zero check) in the constructor
        assert WahBitmap(n, out) == bm
        with pytest.raises(BitSetError, match="out of range"):
            WahBitmap.from_indices(n, [n + GROUP_BITS])


class TestWahScratch:
    def test_buffer_reuse_and_tallies(self):
        scratch = WahScratch()
        n = 310
        ng = _n_groups(n)
        a = WahBitmap.from_indices(n, range(0, n, 3)).wah_words()
        b = WahBitmap.from_indices(n, range(0, n, 5)).wah_words()
        # an AND reads both streams whole and counts the words it writes
        out = wah_and_into(a, b, ng, scratch)
        assert scratch.and_ops == 1
        assert scratch.word_ops == len(a) + len(b) + len(out)
        assert wah_and_into(b, b, ng, scratch) == b.tolist()
        assert scratch.and_ops == 2
        wah_and_any(a, b, ng, scratch)
        assert scratch.and_ops == 3

    def test_and_any_early_exit_reads_fewer_words(self):
        """A hit in the first group must not scan the whole stream."""
        n = GROUP_BITS * 1000
        a = WahBitmap.from_indices(n, range(0, n, 31))
        b = WahBitmap.from_indices(n, range(0, n, 31))
        scratch = WahScratch()
        assert wah_and_any(
            a.wah_words(), b.wah_words(), 1000, scratch
        )
        assert scratch.word_ops <= 4
