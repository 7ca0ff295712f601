"""Plan execution: one thin engine for flat, RBD, and hierarchical dispatch.

:class:`PlanDispatcher` implements the :class:`Dispatcher` protocol —
``plan → dispatch → run_experts → combine`` — by *interpreting* a
:class:`~repro.routing.plan.DispatchPlan`.  Every data movement is a buffer
slice plus a planned uneven all-to-all
(:meth:`~repro.comm.process_group.ProcessGroup.alltoallv_planned`), so the
per-op byte and tier accounting is computed from the plan's splits rather
than re-derived from the payloads, and the hot path contains no per-row
Python loops.  Hierarchical plans route through intra-node subgroups for
their gather/scatter hops and through the full group for the
leader-to-leader exchange, so every hop's bytes land on the right
:class:`~repro.cluster.topology.LinkTier` in ``CommStats.bytes_by_tier``.

Bit-identical combine
---------------------
The combine stage folds weighted expert outputs into per-(token, node)
partial sums and then folds the partials in (token, node) order.  Every
plan kind drives the *same* fold orders (``merge_perm`` / ``combine_perm``
/ ``hM_fold_perm`` encode the (slot, expert) ordering), so the RBD and
hierarchical paths return outputs exactly equal to the flat oracle — not
merely close.  Each fold stage (the RBD pilot merge, the hierarchical
leader fold, the flat partial fold, and the source-side token fold) runs
as one whole-world :class:`~repro.routing.fold.SegmentFold` — the same
sequential segmented sum the fused cached executor uses — with the plan's
fold permutation composed into its gather, so no permuted copy of the
contributions is ever made.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.config.parallel_config import DISPATCH_KINDS
from repro.routing.fold import SegmentFold
from repro.routing.plan import DispatchPlan
from repro.routing.planner import (
    FlatPlanner,
    HierarchicalPlanner,
    RBDPlanner,
    _PlannerBase,
)


#: op names recorded in CommStats per plan kind:
#: (stage-1 dispatch, stage-2 replicas, combine stage C1, combine stage C2)
_OP_NAMES = {
    "flat": ("dispatch_a2a", None, None, "combine_a2a"),
    "rbd": ("rbd_s1_a2a", "rbd_s2_a2a", "rbd_c1_a2a", "rbd_c2_a2a"),
}

#: op names for the hierarchical hops (dispatch gather/inter/scatter and
#: their combine-side reversals).
HIER_DISPATCH_OPS = ("hier_gather_a2a", "hier_inter_a2a", "hier_scatter_a2a")
HIER_COMBINE_OPS = ("hier_c_gather_a2a", "hier_c_inter_a2a", "hier_c_scatter_a2a")

#: dispatch-side op names per plan kind (what the tier-byte benchmarks read).
DISPATCH_OPS = {
    "flat": ("dispatch_a2a",),
    "rbd": ("rbd_s1_a2a", "rbd_s2_a2a"),
    "hier": HIER_DISPATCH_OPS,
}


@runtime_checkable
class Dispatcher(Protocol):
    """The dispatch abstraction shared by the flat, RBD, and hier paths."""

    def plan(self, per_rank_pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into a :class:`DispatchPlan`."""
        ...

    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list,
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Move token rows to their expert-hosting ranks; return (inputs, plan)."""
        ...

    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Apply each rank's local experts to its grouped input buffer."""
        ...

    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
    ) -> list[np.ndarray]:
        """Return weighted expert outputs to their source token positions."""
        ...


class PlanDispatcher:
    """Executes :class:`DispatchPlan` objects built by a planner."""

    def __init__(self, group: ProcessGroup, planner: _PlannerBase):
        self.group = group
        self.planner = planner
        self._node_groups: list[ProcessGroup] | None = None

    # -- conveniences ---------------------------------------------------
    @property
    def num_experts(self) -> int:
        """Total experts across the group (from the planner)."""
        return self.planner.num_experts

    @property
    def expert_to_rank(self) -> np.ndarray:
        """Group-local hosting rank per expert id."""
        return self.planner.expert_to_rank

    @property
    def rank_to_node(self) -> np.ndarray:
        """Node id per group-local rank."""
        return self.planner.rank_to_node

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self.planner.experts_on_rank(local_rank)

    def node_groups(self) -> list[ProcessGroup]:
        """Intra-node subgroups, aligned with the plan's ``node_members``."""
        if self._node_groups is None:
            self._node_groups = self.group.node_local_subgroups()
        return self._node_groups

    # ------------------------------------------------------------------
    def plan(self, per_rank_pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Build the routing plan for one step (no data is moved)."""
        return self.planner.build(per_rank_pfts, step=step)

    # ------------------------------------------------------------------
    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list,
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Route tokens to their expert-hosting ranks as the plan dictates."""
        size = self.group.size
        if len(per_rank_tokens) != size or len(per_rank_pfts) != size:
            raise ValueError("need one token buffer and one PFT per group rank")
        if plan is None:
            plan = self.plan(per_rank_pfts, step=step)
        hidden = per_rank_tokens[0].shape[1]
        if plan.kind == "hier":
            arrival = self._dispatch_hier(per_rank_tokens, plan)
            return self._finish_dispatch(arrival, plan, hidden), plan
        s1_op, s2_op, _, _ = _OP_NAMES[plan.kind]

        # ---- stage 1: pilots travel to their expert's rank ------------
        # Gather through the plan's own PFTs: a plan paired with different
        # (even same-shaped) PFTs must not silently re-route tokens.
        s1_send = [
            per_rank_tokens[r][plan.pfts[r].token_ids[plan.send_rows[r]]]
            for r in range(size)
        ]
        s1_recv, _ = self.group.alltoallv_planned(
            s1_send, plan.send_splits, plan.recv_splits, op_name=s1_op
        )

        # ---- stage 2: replicas reconstructed and exchanged intra-node --
        if s2_op is None:
            arrival = s1_recv
        else:
            replica_recv: list[np.ndarray] = [None] * size  # type: ignore[list-item]
            for members, ng in zip(plan.node_members, self.node_groups()):
                send_bufs = [s1_recv[m][plan.s2_source_slot[m]] for m in members]
                recvd, _ = ng.alltoallv_planned(
                    send_bufs,
                    [plan.s2_send_splits[m] for m in members],
                    [plan.s2_recv_splits[m] for m in members],
                    op_name=s2_op,
                )
                for j, m in enumerate(members):
                    replica_recv[m] = recvd[j]
            arrival = [
                np.concatenate([s1_recv[d], replica_recv[d]], axis=0)
                if replica_recv[d] is not None and replica_recv[d].shape[0]
                else s1_recv[d]
                for d in range(size)
            ]

        return self._finish_dispatch(arrival, plan, hidden), plan

    def _finish_dispatch(
        self, arrival: list[np.ndarray], plan: DispatchPlan, hidden: int
    ) -> list[np.ndarray]:
        """Canonically sort the arrival buffers and guard their shapes."""
        expert_inputs = [arrival[d][plan.sort_order[d]] for d in range(self.group.size)]
        # Guard: every destination's buffer must match its arrival table.
        for d in range(self.group.size):
            if expert_inputs[d].shape != (plan.arrival_src[d].size, hidden):
                raise ValueError(
                    f"rank {d}: arrival buffer {expert_inputs[d].shape} does not "
                    f"match plan ({plan.arrival_src[d].size}, {hidden})"
                )
        return expert_inputs

    # ------------------------------------------------------------------
    def _node_alltoallv(
        self,
        send: list[np.ndarray],
        send_splits: list[np.ndarray],
        recv_splits: list[np.ndarray],
        plan: DispatchPlan,
        op_name: str,
    ) -> list[np.ndarray]:
        """One intra-node alltoallv per node subgroup, results in rank order."""
        out: list[np.ndarray] = [None] * self.group.size  # type: ignore[list-item]
        for members, ng in zip(plan.node_members, self.node_groups()):
            recvd, _ = ng.alltoallv_planned(
                [send[m] for m in members],
                [send_splits[m] for m in members],
                [recv_splits[m] for m in members],
                op_name=op_name,
            )
            for j, m in enumerate(members):
                out[m] = recvd[j]
        return out

    def _dispatch_hier(
        self, per_rank_tokens: list[np.ndarray], plan: DispatchPlan
    ) -> list[np.ndarray]:
        """Run the two-hop dispatch: gather → leader exchange → scatter."""
        size = self.group.size
        gather_op, inter_op, scatter_op = HIER_DISPATCH_OPS

        # ---- hop A: members gather deduplicated rows onto the leader --
        hA_send = [
            per_rank_tokens[r][plan.pfts[r].token_ids[plan.send_rows[r]]]
            for r in range(size)
        ]
        leader_buf = self._node_alltoallv(
            hA_send, plan.hA_send_splits, plan.hA_recv_splits, plan, gather_op
        )

        # ---- hop B: one leader-to-leader inter-node exchange ----------
        hB_send = [leader_buf[r][plan.hB_perm[r]] for r in range(size)]
        hB_recv, _ = self.group.alltoallv_planned(
            hB_send, plan.send_splits, plan.recv_splits, op_name=inter_op
        )

        # ---- hop C: dest leader scatters one row per assignment -------
        hC_send = [hB_recv[r][plan.hC_gather[r]] for r in range(size)]
        return self._node_alltoallv(
            hC_send, plan.hC_send_splits, plan.hC_recv_splits, plan, scatter_op
        )

    # ------------------------------------------------------------------
    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Run each rank's local experts over its grouped input buffer."""
        from repro.xmoe.kernels import sequential_gemm

        return [
            sequential_gemm(
                expert_inputs[r],
                per_rank_w1[r],
                per_rank_w2[r],
                plan.tokens_per_local_expert[r],
                activation=activation,
            )
            for r in range(self.group.size)
        ]

    # ------------------------------------------------------------------
    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
    ) -> list[np.ndarray]:
        """Weighted combine, reversing the dispatch stages of the plan."""
        size = self.group.size
        dtype = per_rank_expert_outputs[0].dtype

        # Undo the by-expert sort and apply the combine weights (the paper
        # scales before merging so replicas can sum onto their pilot).
        weighted: list[np.ndarray] = []
        for d in range(size):
            un = np.empty_like(per_rank_expert_outputs[d])
            un[plan.sort_order[d]] = per_rank_expert_outputs[d]
            weighted.append(un * plan.arrival_weight[d][:, None])

        if plan.kind == "hier":
            return self._combine_hier(weighted, plan, num_tokens_per_rank, dtype)
        _, _, c1_op, c2_op = _OP_NAMES[plan.kind]

        # ---- stage C1: replica outputs merge onto their pilot ----------
        if c1_op is None:
            partials_dest = weighted
        else:
            pilots = plan.num_pilot_arrivals
            c1_recv = self._node_alltoallv(
                [weighted[d][pilots[d] :] for d in range(size)],
                plan.s2_recv_splits, plan.s2_send_splits, plan, c1_op,
            )
            # Each rank's contributions are [own pilot outputs ++ C1
            # receives]; merge_perm/merge_slot are already in fold order
            # (pilot slot, expert, src, row), so one whole-world fold
            # serves every rank.
            contributions: list[np.ndarray] = []
            for d in range(size):
                contributions += [weighted[d][: pilots[d]], c1_recv[d]]
            weighted = c1_recv = None  # the fold frees its inputs once stacked
            slot_off = _offsets(pilots)
            contrib_off = _offsets([c.shape[0] for c in contributions])[::2]
            merge = SegmentFold(
                _stacked(plan.merge_slot, slot_off), _stacked(plan.merge_perm, contrib_off)
            )
            merged = merge.fold(contributions, int(slot_off[-1]), dtype)
            partials_dest = [merged[slot_off[d] : slot_off[d + 1]] for d in range(size)]

        # ---- stage C2: per-(token, node) rows return to their source ---
        returned, _ = self.group.alltoallv_planned(
            partials_dest, plan.recv_splits, plan.send_splits, op_name=c2_op
        )
        weighted = partials_dest = None  # free the C2 inputs before the fold
        return self._source_fold(returned, plan, num_tokens_per_rank, dtype)

    def _combine_hier(
        self,
        weighted: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        dtype,
    ) -> list[np.ndarray]:
        """Reverse the two hops: scatter-back → leader exchange → gather-back."""
        size = self.group.size
        gather_op, inter_op, scatter_op = HIER_COMBINE_OPS

        # ---- reverse hop C: members return weighted rows to the leader,
        # which folds them onto their (token, node) group's hop-B slot in
        # ascending expert order — the flat oracle's association order.
        rev_c = self._node_alltoallv(
            weighted, plan.hC_recv_splits, plan.hC_send_splits, plan, gather_op
        )
        weighted.clear()  # the caller's list: free the buffers before the fold
        slot_off = _offsets([int(plan.recv_splits[r].sum()) for r in range(size)])
        row_off = _offsets([r.shape[0] for r in rev_c])
        leader = SegmentFold(
            _stacked(plan.hM_fold_slot, slot_off), _stacked(plan.hM_fold_perm, row_off)
        )
        folded = leader.fold(rev_c, int(slot_off[-1]), dtype)
        merged = [folded[slot_off[r] : slot_off[r + 1]] for r in range(size)]

        # ---- reverse hop B: leaders exchange the per-group partials back.
        rev_b, _ = self.group.alltoallv_planned(
            merged, plan.recv_splits, plan.send_splits, op_name=inter_op
        )
        del merged, folded
        back: list[np.ndarray] = []
        for r in range(size):
            buf = np.empty((plan.hB_perm[r].size,) + rev_b[r].shape[1:], dtype=dtype)
            buf[plan.hB_perm[r]] = rev_b[r]
            back.append(buf)

        # ---- reverse hop A: the leader returns each member's rows.
        returned = self._node_alltoallv(
            back, plan.hA_recv_splits, plan.hA_send_splits, plan, scatter_op
        )
        del back
        return self._source_fold(returned, plan, num_tokens_per_rank, dtype)

    def _source_fold(
        self,
        returned: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        dtype,
    ) -> list[np.ndarray]:
        """Fold returned rows into each source's tokens, (token, node)-ordered.

        Flat plans return one row per assignment: they first fold into
        per-(token, node) partials in (group, expert) order, and the token
        fold reads those accumulators in place.  RBD and hierarchical plans
        return one row per partial group, so their reorder is composed
        into the token fold's gather.  ``returned`` is consumed.
        """
        size = self.group.size
        tok_off = _offsets(num_tokens_per_rank)
        group_off = _offsets([plan.num_partials(r) for r in range(size)])
        row_off = _offsets([r.shape[0] for r in returned])
        group_of_row = _stacked(plan.combine_partial, group_off)
        if plan.kind == "flat":
            fold_rows = _stacked(plan.combine_perm, row_off)
            groups = SegmentFold(group_of_row[fold_rows], fold_rows)
            if groups.num_segments != int(group_off[-1]):
                raise ValueError("every partial group needs a returned row")
            values = groups.sums(returned, dtype)
            source = groups.slot_of_segment
        else:
            values = returned
            source = np.empty(int(group_off[-1]), dtype=np.int64)
            source[group_of_row] = np.arange(int(row_off[-1]), dtype=np.int64)
        tokens = SegmentFold(_stacked(plan.partial_token, tok_off), source)
        out = tokens.fold(values, int(tok_off[-1]), dtype)
        return [out[tok_off[r] : tok_off[r + 1]] for r in range(size)]


def _offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, …]`` as int64 bounds."""
    return np.cumsum([0, *counts], dtype=np.int64)


def _stacked(per_rank: list[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """One whole-world index array: rank ``r``'s entries shifted by ``offsets[r]``."""
    return np.concatenate(per_rank).astype(np.int64, copy=False) + np.repeat(
        offsets[:-1], [a.size for a in per_rank]
    )


def make_dispatcher(
    group: ProcessGroup,
    num_experts: int,
    *,
    kind: str | None = None,
    use_rbd: bool = False,
    expert_to_rank: np.ndarray | None = None,
    seed: int = 0,
) -> PlanDispatcher:
    """Build a plan-based dispatcher for one dispatch strategy.

    ``kind`` picks the planner: ``"flat"`` (single uneven all-to-all, the
    correctness oracle), ``"rbd"`` (two-stage redundancy-bypassing), or
    ``"hier"`` (two-hop hierarchical dispatch through node leaders).  The
    legacy boolean ``use_rbd`` is honoured when ``kind`` is omitted.
    """
    if kind is None:
        kind = "rbd" if use_rbd else "flat"
    if kind == "rbd":
        planner: _PlannerBase = RBDPlanner(
            group, num_experts, expert_to_rank, seed=seed
        )
    elif kind == "hier":
        planner = HierarchicalPlanner(group, num_experts, expert_to_rank)
    elif kind == "flat":
        planner = FlatPlanner(group, num_experts, expert_to_rank)
    else:
        raise ValueError(f"unknown dispatch kind {kind!r}; expected {DISPATCH_KINDS}")
    return PlanDispatcher(group, planner)
