"""The combine's one fold, and an oracle that shares none of its code.

:class:`repro.routing.fold.SegmentFold` must equal ``np.add.at`` bit for
bit on every input (including ``-0.0`` and ``±inf``), and every dispatch
kind — through the engine and through the fused cached executor — must
equal :func:`tests.helpers.reference_combine`, a per-token Python loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import CommWorld
from repro.routing import ExecProgram, make_dispatcher
from repro.routing.fold import SegmentFold
from repro.xmoe import build_pft
from tests.helpers import reference_combine

KINDS = ("flat", "rbd", "hier")
# inf + -inf is NaN on both sides of every comparison below.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def _add_at(keys, values, num_rows, dtype=None):
    out = np.zeros((num_rows,) + values.shape[1:], dtype=dtype or values.dtype)
    np.add.at(out, keys, values)
    return out


def _values(rng, n, cols=3, *, specials=True):
    vals = rng.normal(size=(n, cols))
    if specials and n:
        pick = rng.random((n, cols))
        vals[pick < 0.15] = -0.0
        vals[(pick >= 0.15) & (pick < 0.2)] = np.inf
        vals[(pick >= 0.2) & (pick < 0.25)] = -np.inf
    return vals


# ----------------------------------------------------------------------
# SegmentFold against np.add.at
# ----------------------------------------------------------------------
@st.composite
def segment_layouts(draw):
    """Sorted keys from random segment lengths (1..8) and key gaps."""
    lengths = draw(st.lists(st.integers(1, 8), max_size=24))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(lengths), max_size=len(lengths)))
    keys, key = [], 0
    for length, gap in zip(lengths, gaps):
        key += gap
        keys += [key] * length
        key += 1
    return np.array(keys, dtype=np.int64), key + draw(st.integers(0, 2))


class TestSegmentFold:
    @settings(max_examples=80, deadline=None)
    @given(segment_layouts(), st.integers(0, 2**16), st.booleans())
    def test_matches_add_at(self, layout, seed, permuted):
        keys, num_rows = layout
        rng = np.random.default_rng(seed)
        vals = _values(rng, keys.size)
        source = rng.permutation(keys.size) if permuted else None
        expected = _add_at(keys, vals if source is None else vals[source], num_rows)
        fold = SegmentFold(keys, source)
        assert fold.fold(vals, num_rows).tobytes() == expected.tobytes()
        # Per-rank pieces gather to the same values, and are released.
        pieces = np.array_split(vals, 3)
        assert fold.fold(pieces, num_rows).tobytes() == expected.tobytes()
        assert pieces == []

    def test_empty(self):
        fold = SegmentFold(np.zeros(0, dtype=np.int64))
        assert fold.num_segments == 0
        out = fold.fold(np.zeros((0, 2)), 3)
        assert out.tobytes() == np.zeros((3, 2)).tobytes()
        assert fold.fold(np.zeros((0, 2)), 0).shape == (0, 2)

    def test_single_segment(self):
        vals = _values(np.random.default_rng(1), 7)
        keys = np.full(7, 2)
        out = SegmentFold(keys).fold(vals, 4)
        assert out.tobytes() == _add_at(keys, vals, 4).tobytes()

    def test_all_segments_length_one(self):
        vals = _values(np.random.default_rng(2), 9)
        keys = np.arange(9) * 2
        out = SegmentFold(keys).fold(vals, 18)
        assert out.tobytes() == _add_at(keys, vals, 18).tobytes()

    def test_signed_zeros_and_infinities(self):
        keys = np.array([0, 0, 1, 1, 2, 3, 3, 3])
        vals = np.array(
            [-0.0, -0.0, np.inf, -np.inf, -0.0, np.inf, 1.0, np.inf]
        )[:, None]
        out = SegmentFold(keys).fold(vals, 4)
        assert out.tobytes() == _add_at(keys, vals, 4).tobytes()
        assert not np.signbit(out[0, 0]) and not np.signbit(out[2, 0])

    def test_explicit_source_with_repeats(self):
        rng = np.random.default_rng(3)
        vals = _values(rng, 5)
        keys = np.array([0, 0, 0, 2, 2, 3, 3, 3, 3])
        source = rng.integers(0, 5, size=keys.size)
        out = SegmentFold(keys, source).fold(vals, 5)
        assert out.tobytes() == _add_at(keys, vals[source], 5).tobytes()

    def test_narrower_target_dtype_rounds_every_add(self):
        rng = np.random.default_rng(4)
        keys = np.sort(rng.integers(0, 6, size=40))
        vals = rng.normal(size=(40, 3))
        out = SegmentFold(keys).fold(vals, 6, np.float32)
        assert out.dtype == np.float32
        assert out.tobytes() == _add_at(keys, vals, 6, np.float32).tobytes()

    def test_chained_folds_read_accumulators_in_place(self):
        """A second fold sourced by ``slot_of_segment`` equals two add.at's."""
        rng = np.random.default_rng(5)
        groups = np.sort(rng.integers(0, 10, size=50))
        groups = np.unique(groups, return_inverse=True)[1]  # dense 0..G-1
        num_groups = int(groups.max()) + 1
        group_token = np.sort(rng.integers(0, 4, size=num_groups))
        vals = _values(rng, 50)
        first = SegmentFold(groups)
        second = SegmentFold(group_token, first.slot_of_segment)
        out = second.fold(first.sums(vals.copy()), 4)
        expected = _add_at(group_token, _add_at(groups, vals, num_groups), 4)
        assert out.tobytes() == expected.tobytes()

    def test_decreasing_keys_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SegmentFold(np.array([0, 2, 1]))

    def test_misaligned_source_rejected(self):
        with pytest.raises(ValueError, match="align"):
            SegmentFold(np.array([0, 1]), np.array([0]))


# ----------------------------------------------------------------------
# Every dispatch kind and both executors against the per-token oracle
# ----------------------------------------------------------------------
class TestCombineOracle:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 3),  # nodes (8 ranks per node; 3 make node order matter)
        st.integers(1, 3),  # experts per rank
        st.integers(1, 6),  # top-k
        st.lists(st.integers(0, 10), min_size=24, max_size=24),  # ragged tokens
        st.integers(1, 6),  # per-expert capacity (drops)
        st.integers(0, 2**16),
    )
    def test_every_kind_equals_reference_combine(
        self, nodes, experts_per_rank, top_k, token_counts, capacity, seed
    ):
        num_ranks = 8 * nodes
        num_experts = experts_per_rank * num_ranks
        top_k = min(top_k, num_experts)
        token_counts = token_counts[:num_ranks]
        token_counts[0] = 0  # always one empty rank
        hidden = 4
        rng = np.random.default_rng(seed)
        # Elementwise experts (bit-reproducible row by row); zero scales
        # make signed-zero outputs, -0.0 among them.
        scale = rng.choice([1.5, -0.75, 0.0, -0.0, 2.0], size=num_experts)
        tokens, pfts = [], []
        for count in token_counts:
            toks = rng.normal(size=(count, hidden))
            top_experts = np.argsort(rng.random((count, num_experts)), axis=1)[:, :top_k]
            weights = rng.uniform(0.05, 1.0, size=(count, top_k))
            pfts.append(build_pft(capacity, top_experts, weights, num_experts))
            tokens.append(toks)

        def expert_output(rank, token, expert):
            return tokens[rank][token] * scale[expert]

        for kind in KINDS:
            world = CommWorld(num_ranks=num_ranks)
            disp = make_dispatcher(world.world_group(), num_experts, kind=kind, seed=seed)
            inputs, plan = disp.dispatch(tokens, pfts)
            outputs = [
                inputs[d]
                * scale[np.repeat(disp.experts_on_rank(d), plan.tokens_per_local_expert[d])][
                    :, None
                ]
                for d in range(num_ranks)
            ]
            expected = reference_combine(
                pfts, expert_output, token_counts, hidden,
                disp.expert_to_rank, disp.rank_to_node,
            )
            engine = disp.combine(outputs, plan, token_counts)
            program = ExecProgram.build(pfts, plan, token_counts)
            fused = program.run_combine(np.concatenate(outputs, axis=0))
            for r in range(num_ranks):
                assert engine[r].tobytes() == expected[r].tobytes(), (kind, r)
                assert fused[r].tobytes() == expected[r].tobytes(), (kind, r)
