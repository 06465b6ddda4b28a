"""Operation counters shared by the enumeration algorithms.

The simulated shared-memory machine (:mod:`repro.parallel.machine`) charges
virtual time per *unit of algorithmic work*, so every enumerator counts the
operations the paper's analysis talks about:

* ``bit_and_ops`` — bitwise ANDs of length-n bit strings (common-neighbor
  computation),
* ``bit_exist_checks`` — "does a 1-bit exist" tests (maximality checks),
* ``pair_checks`` — adjacency checks between common neighbors inside a
  sub-list (the O((n-k)^2) term of the paper's run-time analysis),
* ``cliques_generated`` / ``maximal_emitted`` — output volume.

Counters are plain integers on a small object; the overhead is one Python
attribute increment per counted operation, identical for every algorithm,
so relative comparisons stay fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OpCounters", "IOStats"]


@dataclass
class OpCounters:
    """Mutable tally of enumeration work.

    Use :meth:`snapshot` to freeze values for reporting and :meth:`merge`
    to combine per-thread counters after a parallel level.
    """

    bit_and_ops: int = 0
    bit_exist_checks: int = 0
    pair_checks: int = 0
    cliques_generated: int = 0
    maximal_emitted: int = 0
    sublists_created: int = 0
    levels: int = 0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "OpCounters") -> None:
        """Add another counter set into this one (for parallel reduction)."""
        self.bit_and_ops += other.bit_and_ops
        self.bit_exist_checks += other.bit_exist_checks
        self.pair_checks += other.pair_checks
        self.cliques_generated += other.cliques_generated
        self.maximal_emitted += other.maximal_emitted
        self.sublists_created += other.sublists_created
        self.levels = max(self.levels, other.levels)
        for key, val in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + val

    def snapshot(self) -> dict:
        """Immutable dict view for reports."""
        out = {
            "bit_and_ops": self.bit_and_ops,
            "bit_exist_checks": self.bit_exist_checks,
            "pair_checks": self.pair_checks,
            "cliques_generated": self.cliques_generated,
            "maximal_emitted": self.maximal_emitted,
            "sublists_created": self.sublists_created,
            "levels": self.levels,
        }
        out.update(self.extra)
        return out

    def total_work(self) -> int:
        """Scalar work measure used by the machine model.

        Pair checks and bit operations dominate the run time of the real
        algorithm; the weights approximate their relative cost on the
        bit-matrix representation (a length-n AND touches n/64 words; a
        pair check is O(1)).
        """
        return (
            self.pair_checks
            + 4 * self.bit_and_ops
            + 2 * self.bit_exist_checks
            + self.cliques_generated
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.bit_and_ops = 0
        self.bit_exist_checks = 0
        self.pair_checks = 0
        self.cliques_generated = 0
        self.maximal_emitted = 0
        self.sublists_created = 0
        self.levels = 0
        self.extra.clear()


@dataclass
class IOStats:
    """Disk traffic accounting for a disk-backed enumeration run.

    Shared by every :class:`~repro.core.out_of_core.DiskLevelStore` of one
    run, so ``total_bytes`` is the run's full spill-and-stream volume —
    the quantity the paper's in-core algorithm exists to avoid.
    """

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0

    @property
    def total_bytes(self) -> int:
        """Written plus read bytes."""
        return self.bytes_written + self.bytes_read
