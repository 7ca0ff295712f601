"""One sequential segmented sum for every MoE combine.

X-MoE's combine is a chain of segmented sums: weighted expert outputs fold
onto their pilot row (RBD) or their leader slot (hierarchical dispatch),
and every source token then folds its per-node partials.  Bit-identity
across dispatch kinds requires each sum to run in one fixed sequential
order, ``((0 + v0) + v1) + …`` — what ``np.add.at`` does; ``np.add.reduceat``
does **not** accumulate sequentially.

:class:`SegmentFold` compiles one such sum from its non-decreasing target
keys into jagged-diagonal order: segments sorted longest-first, values
gathered position-major, so pass ``j`` adds the ``j``-th value of every
segment still running as one contiguous slab,
``acc[:c_j] += vals[o_j : o_j + c_j]``.  Each accumulator still sees its
values in key order starting from ``+0.0``, so results equal
``np.add.at``'s bit for bit, at whole-slab (not per-row) cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentFold"]


class SegmentFold:
    """A sequential segmented sum in jagged-diagonal order.

    ``keys`` are the non-decreasing target rows of the values to fold;
    ``source`` optionally names, per key, the row of the values array that
    carries it (default: row ``i`` for key ``i``), so a permutation is
    composed into the gather instead of materialized.  ``fold(values, n)``
    equals ``np.add.at(np.zeros((n, ...)), keys, values[source])``
    bit for bit.

    ``gather`` holds the source rows in jagged order (``key_order`` the
    key position behind each), ``targets`` the target row of each
    accumulator, and ``slot_of_segment`` the accumulator of each segment in
    key order — what a follow-on fold over the sums uses as its ``source``
    to read the accumulators in place.
    """

    def __init__(self, keys, source=None):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("segment keys must be one-dimensional")
        n = keys.size
        source = (
            np.arange(n, dtype=np.int64)
            if source is None
            else np.asarray(source, dtype=np.int64)
        )
        if source.shape != keys.shape:
            raise ValueError("source index must align with the keys")
        step = keys[1:] - keys[:-1]
        if (step < 0).any():
            raise ValueError("segment keys must be non-decreasing")

        # Segment bounds: 0, every key change, n.
        bounds = (
            np.concatenate([[0], np.flatnonzero(step) + 1, [n]])
            if n
            else np.zeros(1, dtype=np.int64)
        )
        starts = bounds[:-1]
        num_segments = starts.size
        if num_segments == n:
            # Every segment holds one value: jagged order is key order.
            key_order = slot_of_segment = np.arange(n, dtype=np.int64)
            passes = ()
        else:
            lengths = bounds[1:] - starts
            order = np.argsort(-lengths, kind="stable")
            slot_of_segment = np.empty(num_segments, dtype=np.int64)
            slot_of_segment[order] = np.arange(num_segments, dtype=np.int64)
            # c_j: segments longer than j (a prefix of the longest-first
            # order); pass j reads them from offset o_j.
            counts = num_segments - np.cumsum(np.bincount(lengths))[:-1]
            offsets = np.cumsum(counts) - counts
            position = np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)
            key_order = np.empty(n, dtype=np.int64)
            key_order[
                offsets[position] + np.repeat(slot_of_segment, lengths)
            ] = np.arange(n, dtype=np.int64)
            starts = starts[order]
            passes = tuple(zip(offsets[1:].tolist(), counts[1:].tolist()))

        self.key_order = key_order
        self.gather = source[key_order]
        self.targets = keys[starts]
        self.slot_of_segment = slot_of_segment
        self.num_segments = int(num_segments)
        self._passes = passes

    # ------------------------------------------------------------------
    def accumulate(self, vals: np.ndarray, dtype=None) -> np.ndarray:
        """Fold values already in jagged order; return the accumulators.

        Pass 0 adds each segment's first value to ``+0.0`` (so a lone
        ``-0.0`` sums to ``+0.0``, as in ``np.add.at``), and pass ``j`` adds
        every running segment's ``j``-th value in one contiguous slab.  The
        accumulators are the first ``num_segments`` rows of ``vals``, folded
        in place — unless ``dtype`` differs from ``vals.dtype``: then they
        are a fresh ``dtype`` buffer and every add rounds to ``dtype``, as
        ``np.add.at`` into a ``dtype`` target does.
        """
        if dtype is None or np.dtype(dtype) == vals.dtype:
            acc = vals[: self.num_segments]
            acc += 0.0
        else:
            acc = np.zeros((self.num_segments,) + vals.shape[1:], dtype=dtype)
            acc += vals[: self.num_segments]
        for offset, count in self._passes:
            acc[:count] += vals[offset : offset + count]
        return acc

    def sums(self, values, dtype=None) -> np.ndarray:
        """Per-segment sums, in accumulator (jagged) order.

        ``values`` is one array or a list of per-rank arrays whose row
        concatenation ``source`` indexes.  A list is consumed: its entries
        are released once copied into one buffer, so a whole-world fold
        holds at most that buffer and the gathered values, never a
        permuted copy of every rank's inputs.
        """
        if isinstance(values, list):
            stacked = np.concatenate(values)
            values.clear()
            values = stacked
        return self.accumulate(np.take(values, self.gather, axis=0), dtype)

    def fold(self, values, num_rows: int, dtype=None) -> np.ndarray:
        """``np.add.at(zeros((num_rows, ...), dtype), keys, values[source])``.

        Bit for bit; ``dtype`` defaults to the values' own.  One scatter
        writes the accumulators to their target rows; rows no key names
        stay zero.
        """
        acc = self.sums(values, dtype)
        out = np.zeros((int(num_rows),) + acc.shape[1:], dtype=acc.dtype)
        out[self.targets] = acc
        return out
