"""Router-policy load-balance analysis.

Single-process comparison of the registered router policies over the same
(optionally Zipf-skewed) token batch: per-expert load entropy, max/mean
imbalance, and drop rates — the analytic companion to the cluster-level
sweep in ``benchmarks/test_router_policies.py``.  Token-choice routers
concentrate load on popular experts as the skew grows; expert-choice
routing stays at entropy 1.0 by construction.
"""

from __future__ import annotations

import numpy as np

from repro.routing.policies import (
    ROUTER_POLICY_NAMES,
    make_policy,
    skewed_router_tokens,
)


def policy_load_balance_table(
    *,
    num_tokens: int = 512,
    hidden_size: int = 32,
    num_experts: int = 16,
    top_k: int = 2,
    capacity_factor: float = 1.25,
    skew: float = 1.2,
    seed: int = 0,
    policies: tuple[str, ...] = ROUTER_POLICY_NAMES,
) -> list[dict]:
    """One row per policy: how it balances a skewed token distribution.

    All policies share the same router weight and see the same tokens, so
    the rows differ only by routing regime.
    """
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(hidden_size)
    weight = rng.normal(0.0, std, size=(hidden_size, num_experts))
    hidden = skewed_router_tokens(rng, num_tokens, weight, skew=skew)

    rows: list[dict] = []
    for name in policies:
        policy = make_policy(
            name,
            hidden_size,
            num_experts,
            top_k,
            capacity_factor=capacity_factor,
            weight=weight,
            seed=seed,
        )
        decision = policy.route_batch([hidden], step=0)[0]
        load = decision.expert_load()
        mean = max(1e-12, float(load.mean()))
        rows.append(
            {
                "policy": name,
                "assignments": decision.num_assignments,
                "balance_entropy": round(decision.balance_entropy(), 4),
                "load_imbalance": round(float(load.max()) / mean, 3),
                "drop_rate": round(decision.drop_rate, 4),
                "aux_loss": round(decision.aux_loss, 6),
                "z_loss": round(decision.z_loss, 6),
            }
        )
    return rows
