"""Top-k gating for expert-specialized MoE layers.

The gate projects each token to per-expert logits (differentiably, on the
autograd substrate) and delegates *selection and dropping* to a pluggable
:class:`~repro.routing.policies.RouterPolicy` (§2, §4.1 of the paper; the
policy subsystem lives in :mod:`repro.routing.policies`).  The default
policy is the paper's softmax top-k router; the legacy
:class:`DropPolicy` enum is now a thin wrapper selecting that policy's
score-threshold knob, matching the subtle difference the paper discovered
while validating loss curves (§5.6):

* :attr:`DropPolicy.SCORE_THRESHOLD` — DeepSpeed-MoE behaviour: a token is
  dropped from an expert when its (pre-softmax) routing score is negative,
  regardless of whether the capacity is exceeded.
* :attr:`DropPolicy.CAPACITY_ONLY` — X-MoE behaviour: tokens are dropped
  only when they exceed the expert capacity, so more tokens survive.

The gate also computes the standard load-balancing auxiliary loss
(Switch-Transformer style), which both pipelines add to the LM loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.routing.policies import RouterPolicy, RoutingDecision, SoftmaxTopKPolicy
from repro.tensor.autograd import Tensor
from repro.tensor import ops


class DropPolicy(enum.Enum):
    """Which tokens are eligible to be dropped by the dispatcher.

    A thin wrapper over the router-policy protocol: each member maps onto a
    :class:`~repro.routing.policies.SoftmaxTopKPolicy` configuration via
    :meth:`to_policy` (``SCORE_THRESHOLD`` sets the policy's
    ``score_threshold`` knob; ``CAPACITY_ONLY`` leaves all dropping to the
    capacity rule of PFT construction / padded dispatch).
    """

    CAPACITY_ONLY = "capacity-only"
    SCORE_THRESHOLD = "score-threshold"

    @property
    def drops_on_score(self) -> bool:
        """True when assignments with negative raw scores are dropped early."""
        return self is DropPolicy.SCORE_THRESHOLD

    def to_policy(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int,
        *,
        aux_loss_coef: float = 0.01,
    ) -> SoftmaxTopKPolicy:
        """The softmax top-k router policy this drop policy corresponds to."""
        return SoftmaxTopKPolicy(
            hidden_size,
            num_experts,
            top_k,
            score_threshold=self.drops_on_score,
            aux_loss_coef=aux_loss_coef,
        )


@dataclass
class GateOutput:
    """Everything downstream dispatch stages need from the gate.

    Attributes
    ----------
    logits:
        Raw router logits, ``[S, E]`` tensor (kept for the aux loss).
    probs:
        Softmax probabilities, ``[S, E]`` tensor (differentiable).
    top_experts:
        ``[S, k]`` integer array of selected expert ids per token.  For
        assignment-level policies (expert-choice) this is an ``[A, 1]``
        per-assignment column; ``decision`` is the authoritative form.
    top_scores:
        ``[S, k]`` float array of the corresponding probabilities
        (detached; combine weighting re-reads the differentiable ``probs``).
    drop_eligible:
        Boolean array aligned with ``top_experts``; ``True`` marks
        assignments the *policy* forcibly drops before any capacity rule is
        applied.  Invariant (asserted once, in :meth:`TopKGate.__call__`):
        a policy that does not drop early (``drops_early=False`` — e.g. the
        default softmax top-k under ``DropPolicy.CAPACITY_ONLY``) must emit
        an all-``False`` mask, because capacity-only dropping happens later,
        during PFT construction or padded dispatch; a policy that does drop
        early (``SCORE_THRESHOLD``'s negative-raw-score rule, switch-top-1's
        capacity-factor rule) decides those drops here, before any capacity
        is known downstream.
    aux_loss:
        Scalar tensor with the load-balancing auxiliary loss.
    decision:
        The full :class:`~repro.routing.policies.RoutingDecision` the policy
        produced (flat assignment arrays + telemetry fields).
    """

    logits: Tensor
    probs: Tensor
    top_experts: np.ndarray
    top_scores: np.ndarray
    drop_eligible: np.ndarray
    aux_loss: Tensor
    decision: RoutingDecision


class TopKGate:
    """Router: linear projection + softmax + policy-driven selection."""

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int,
        *,
        rng: np.random.Generator | None = None,
        drop_policy: DropPolicy = DropPolicy.CAPACITY_ONLY,
        aux_loss_coef: float = 0.01,
        policy: RouterPolicy | None = None,
    ):
        if not (1 <= top_k <= num_experts):
            raise ValueError(f"top_k={top_k} must be in [1, {num_experts}]")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.drop_policy = drop_policy
        self.aux_loss_coef = aux_loss_coef
        std = 1.0 / np.sqrt(hidden_size)
        self.weight = Tensor(
            rng.normal(0.0, std, size=(hidden_size, num_experts)), requires_grad=True
        )
        if policy is None:
            policy = drop_policy.to_policy(
                hidden_size, num_experts, top_k, aux_loss_coef=aux_loss_coef
            )
        elif policy.num_experts != num_experts:
            raise ValueError("policy and gate disagree on the expert count")
        self.policy = policy
        self._auto_step = 0

    def parameters(self) -> list[Tensor]:
        return [self.weight]

    def __call__(self, tokens: Tensor, *, step: int | None = None) -> GateOutput:
        """Route ``tokens`` (a ``[S, H]`` tensor).

        ``step`` seeds the policy's exploration noise (``(seed, step)`` →
        one deterministic generator); the default policy ignores it.  When
        ``step`` is omitted the gate substitutes an internal per-call
        counter, so legacy step-less callers still get fresh noise each
        forward instead of a frozen perturbation.
        """
        if tokens.ndim != 2 or tokens.shape[1] != self.hidden_size:
            raise ValueError(
                f"expected [S, {self.hidden_size}] tokens, got {tokens.shape}"
            )
        if step is None:
            step = self._auto_step
            self._auto_step += 1
        logits = tokens @ self.weight
        probs = ops.softmax(logits, axis=-1)
        decision = self.policy.decide_batch(logits.data[None], step=step)[0]

        # The drop-eligibility invariant, asserted in exactly one place (see
        # GateOutput.drop_eligible): late-dropping policies must not mark
        # any assignment dropped.
        if not self.policy.drops_early and decision.dropped.any():
            raise AssertionError(
                f"policy {getattr(self.policy, 'name', type(self.policy).__name__)!r} "
                "declares drops_early=False but emitted dropped assignments; "
                "capacity-only dropping must defer to PFT construction"
            )

        if decision.top_experts is not None:
            top_experts = decision.top_experts
            top_scores = decision.top_scores
            drop_eligible = decision.drop_mask
        else:  # assignment-level policy: per-assignment columns
            top_experts = decision.expert_ids.reshape(-1, 1)
            top_scores = decision.scores.reshape(-1, 1)
            drop_eligible = decision.dropped.reshape(-1, 1)

        aux_loss = self._load_balancing_loss(probs, decision.expert_ids)
        return GateOutput(
            logits=logits,
            probs=probs,
            top_experts=top_experts,
            top_scores=top_scores,
            drop_eligible=drop_eligible,
            aux_loss=aux_loss,
            decision=decision,
        )

    # ------------------------------------------------------------------
    def _load_balancing_loss(self, probs: Tensor, top_experts: np.ndarray) -> Tensor:
        """Switch-Transformer load-balancing loss: ``E * sum(f_e * P_e)``.

        ``f_e`` is the fraction of (token, slot) assignments routed to expert
        ``e`` and ``P_e`` the mean router probability of expert ``e``.
        """
        counts = np.bincount(
            top_experts.reshape(-1), minlength=self.num_experts
        ).astype(np.float64)
        fraction = counts / max(1, top_experts.size)
        mean_probs = probs.mean(axis=0)  # [E]
        weighted = mean_probs * Tensor(fraction)
        return weighted.sum() * (self.aux_loss_coef * self.num_experts)

    # ------------------------------------------------------------------
    def expert_load(self, top_experts: np.ndarray) -> np.ndarray:
        """Tokens routed to each expert (histogram over all k slots)."""
        return np.bincount(top_experts.reshape(-1), minlength=self.num_experts)
