"""Plan-cache correctness: every cache tier bit-identical to cold builds.

The contract of :mod:`repro.routing.plan_cache`: a :class:`StepRuntime`
with a :class:`PlanCache` attached produces *bit-identical* outputs,
expert inputs, and PFTs to a cache-less runtime — for every router policy,
every dispatch kind, and randomized reroute fractions from 0% (exact hits
and weight patches) through 100% (cold rebuilds), including zero-token
ranks and ragged batches.  Plus the cache's own behavior: the four-tier
resolution outcomes, LRU bounding and eviction hygiene, order-insensitive
fingerprints, trace/telemetry plumbing, and the calibration satellite
(warn-and-skip on malformed records, hit-rate-discounted plan pricing).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import CommWorld
from repro.routing import (
    ROUTER_POLICY_NAMES,
    ExecProgram,
    PlanCache,
    decision_fingerprint,
    make_dispatcher,
    make_policy,
)
from repro.routing.plan_cache import StepSignature
from repro.routing.policies import RoutingDecision, skewed_router_tokens
from repro.routing.telemetry import RoutingTelemetry
from repro.runtime import StepRuntime
from repro.tuner.calibration import Calibration, load_calibration

KINDS = ("flat", "rbd", "hier")


def _policy_and_batches(name, *, num_ranks, tokens, hidden, experts, top_k, seed):
    policy = make_policy(
        name, hidden, experts, top_k, rng=np.random.default_rng(seed), seed=seed
    )
    sizes = [tokens] * num_ranks if isinstance(tokens, int) else list(tokens)
    batches = [
        skewed_router_tokens(
            np.random.default_rng((seed, 0, rank)), size, policy.weight, skew=0.8
        )
        for rank, size in enumerate(sizes)
    ]
    return policy, batches


def _runtime_pair(policy, kind, num_ranks, experts, *, capacity=None, seed=0):
    """A cached runtime and a cache-less one over twin worlds."""
    runtimes = []
    for cache in (PlanCache(), None):
        world = CommWorld(num_ranks=num_ranks)
        dispatcher = make_dispatcher(
            world.world_group(), experts, kind=kind, seed=seed
        )
        runtimes.append(
            StepRuntime(policy, dispatcher, capacity=capacity, plan_cache=cache)
        )
    return runtimes


def _perturb(batches, rng, fraction):
    """Re-draw ``fraction`` of each rank's token rows; tiny-noise the rest."""
    out = []
    for b in batches:
        b = b.copy()
        if b.shape[0]:
            b += 1e-9 * rng.normal(size=b.shape)
            redraw = int(round(fraction * b.shape[0]))
            if redraw:
                rows = rng.choice(b.shape[0], size=redraw, replace=False)
                b[rows] = rng.normal(size=(redraw, b.shape[1]))
        out.append(b)
    return out


def _assert_step_equal(warm, cold, context):
    for a, b in zip(warm.outputs, cold.outputs):
        assert np.array_equal(a, b), f"{context}: outputs differ"
    for a, b in zip(warm.expert_inputs, cold.expert_inputs):
        assert np.array_equal(a, b), f"{context}: expert inputs differ"
    for a, b in zip(warm.pfts, cold.pfts):
        assert np.array_equal(a.token_ids, b.token_ids), context
        assert np.array_equal(a.expert_ids, b.expert_ids), context
        assert np.array_equal(a.tokens_per_expert, b.tokens_per_expert), context
        assert np.array_equal(a.combine_weights, b.combine_weights), context
        assert a.dropped_assignments == b.dropped_assignments, context


# ----------------------------------------------------------------------
# Property: cached/patched plans bit-identical to cold builds
# ----------------------------------------------------------------------
class TestCachedStepEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=6, deadline=None)
    @given(
        name=st.sampled_from(ROUTER_POLICY_NAMES),
        seed=st.integers(min_value=0, max_value=2**16),
        fraction=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        capacity=st.sampled_from([None, 3]),
    )
    def test_bit_identical_across_reroute_fractions(
        self, kind, name, seed, fraction, capacity
    ):
        num_ranks, experts = 4, 8
        policy, base = _policy_and_batches(
            name, num_ranks=num_ranks, tokens=10, hidden=8,
            experts=experts, top_k=2, seed=seed,
        )
        warm, cold = _runtime_pair(
            policy, kind, num_ranks, experts, capacity=capacity, seed=seed
        )
        rng = np.random.default_rng((seed, 1))
        batches = base
        for step_no in range(4):
            context = f"{kind}/{name} reroute={fraction} step={step_no}"
            warm_result = warm.run_step([b.copy() for b in batches], step=0)
            cold_result = cold.run_step([b.copy() for b in batches], step=0)
            _assert_step_equal(warm_result, cold_result, context)
            assert warm_result.trace.cache_outcome in (
                "hit", "weight_patch", "patch", "miss",
            )
            assert cold_result.trace.cache_outcome is None
            batches = _perturb(base, rng, fraction)
        # repeating the very first batch must be an exact hit
        hits_before = warm.plan_cache.hits
        warm_result = warm.run_step([b.copy() for b in base], step=0)
        cold_result = cold.run_step([b.copy() for b in base], step=0)
        _assert_step_equal(warm_result, cold_result, "repeat of first batch")
        assert warm.plan_cache.hits == hits_before + 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_ragged_and_zero_token_ranks(self, kind):
        """Ragged per-rank sizes, including an empty rank, stay cached-safe."""
        num_ranks, experts = 4, 8
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=num_ranks, tokens=(5, 0, 9, 3),
            hidden=8, experts=experts, top_k=2, seed=7,
        )
        warm, cold = _runtime_pair(policy, kind, num_ranks, experts, seed=7)
        rng = np.random.default_rng(11)
        for step_no, fraction in enumerate((0.0, 0.0, 0.3, 1.0)):
            batches = base if step_no == 0 else _perturb(base, rng, fraction)
            warm_result = warm.run_step([b.copy() for b in batches], step=0)
            cold_result = cold.run_step([b.copy() for b in batches], step=0)
            _assert_step_equal(warm_result, cold_result, f"ragged step {step_no}")
        assert warm.plan_cache.lookups == 4


# ----------------------------------------------------------------------
# Cache mechanics: outcomes, LRU bound, fingerprints
# ----------------------------------------------------------------------
class TestPlanCacheMechanics:
    def _drive(self, kind="flat", maxsize=8):
        num_ranks, experts = 4, 8
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=num_ranks, tokens=16, hidden=8,
            experts=experts, top_k=2, seed=3,
        )
        warm, _ = _runtime_pair(policy, kind, num_ranks, experts, seed=3)
        warm.plan_cache.maxsize = maxsize
        return warm, base

    def test_outcome_tiers(self):
        warm, base = self._drive()
        rng = np.random.default_rng(5)
        noisy = [b + 1e-9 * rng.normal(size=b.shape) for b in base]
        flipped = [b.copy() for b in base]
        flipped[0][:1] *= -1.0
        fresh = [rng.normal(size=b.shape) for b in base]
        outcomes = [
            warm.run_step([b.copy() for b in arrs], step=0).trace.cache_outcome
            for arrs in (base, base, noisy, flipped, fresh)
        ]
        assert outcomes[0] == "miss"
        assert outcomes[1] == "hit"
        assert outcomes[2] == "weight_patch"
        assert outcomes[3] == "patch"
        assert outcomes[4] == "miss"
        stats = warm.plan_cache.stats()
        assert stats["lookups"] == 5
        assert stats["hit_rate"] == pytest.approx(2 / 5)

    def test_lru_bound_and_eviction_hygiene(self):
        warm, base = self._drive(maxsize=2)
        rng = np.random.default_rng(9)
        for _ in range(6):
            fresh = [rng.normal(size=b.shape) for b in base]
            warm.run_step(fresh, step=0)
        cache = warm.plan_cache
        assert len(cache) <= 2
        assert cache.evictions >= 4
        # auxiliary indexes must not leak evicted entries
        assert len(cache._by_structure) <= 2
        assert len(cache._last_by_context) <= 2

    def test_maxsize_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)

    def test_fingerprint_order_insensitive(self):
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=3, tokens=12, hidden=8,
            experts=6, top_k=2, seed=1,
        )
        decisions = policy.route_batch(base, step=0)
        shape = [b.shape[0] for b in base]
        baseline = decision_fingerprint(decisions, shape)

        shuffled = []
        rng = np.random.default_rng(2)
        for d in decisions:
            perm = rng.permutation(d.token_ids.size)
            shuffled.append(
                RoutingDecision(
                    num_tokens=d.num_tokens,
                    num_experts=d.num_experts,
                    token_ids=d.token_ids[perm],
                    expert_ids=d.expert_ids[perm],
                    scores=d.scores[perm],
                    dropped=d.dropped[perm],
                    probs=d.probs,
                    aux_loss=d.aux_loss,
                    z_loss=d.z_loss,
                )
            )
        assert decision_fingerprint(shuffled, shape) == baseline

        # ...but any score flip moves the weight digest, and any expert
        # flip moves the structure digest.
        bumped = [d for d in decisions]
        scores = bumped[0].scores.copy()
        scores[0] += 1e-12
        bumped[0] = RoutingDecision(
            num_tokens=bumped[0].num_tokens,
            num_experts=bumped[0].num_experts,
            token_ids=bumped[0].token_ids,
            expert_ids=bumped[0].expert_ids,
            scores=scores,
            dropped=bumped[0].dropped,
            probs=bumped[0].probs,
            aux_loss=bumped[0].aux_loss,
            z_loss=bumped[0].z_loss,
        )
        structure, weights = decision_fingerprint(bumped, shape)
        assert structure == baseline[0]
        assert weights != baseline[1]

    def test_signature_exact_verification(self):
        """Digest matches are never trusted alone: arrays are compared."""
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=2, tokens=8, hidden=8,
            experts=4, top_k=2, seed=4,
        )
        shape = [b.shape[0] for b in base]
        sig = StepSignature.from_decisions(policy.route_batch(base, step=0), shape)
        other = StepSignature.from_decisions(policy.route_batch(base, step=0), shape)
        assert sig.matches(other) and sig.structure_matches(other)
        other.scores[0] += 1.0  # same digests recorded, different payload
        assert not sig.matches(other)


# ----------------------------------------------------------------------
# The fused executor compiles on first reuse, never on a cold step
# ----------------------------------------------------------------------
class TestLazyCompile:
    def _pair(self, kind="rbd"):
        num_ranks, experts = 4, 8
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=num_ranks, tokens=16, hidden=8,
            experts=experts, top_k=2, seed=11,
        )
        warm, cold = _runtime_pair(policy, kind, num_ranks, experts, seed=11)
        return warm, cold, base

    @pytest.mark.parametrize("kind", KINDS)
    def test_cold_step_keeps_templates_and_first_hit_compiles(self, kind):
        warm, cold, base = self._pair(kind)
        first = warm.run_step([b.copy() for b in base], step=0)
        (entry,) = warm.plan_cache._entries.values()
        assert first.trace.cache_outcome == "miss" and not first.trace.fused
        assert entry.exec_program is None
        assert entry.comm_events

        events_before = len(warm.dispatcher.group.world.stats.events)
        hit = warm.run_step([b.copy() for b in base], step=0)
        assert hit.trace.cache_outcome == "hit" and hit.trace.fused
        assert entry.exec_program is not None
        replayed = warm.dispatcher.group.world.stats.events[events_before:]
        assert tuple(replayed) == entry.comm_events
        _assert_step_equal(hit, cold.run_step([b.copy() for b in base], step=0), kind)

    def test_weight_patch_inherits_templates(self):
        warm, cold, base = self._pair()
        warm.run_step([b.copy() for b in base], step=0)
        noisy = [b + 1e-9 * np.random.default_rng(2).normal(size=b.shape) for b in base]
        patched = warm.run_step([b.copy() for b in noisy], step=0)
        assert patched.trace.cache_outcome == "weight_patch" and patched.trace.fused
        source, entry = warm.plan_cache._entries.values()
        assert entry.comm_events is source.comm_events
        assert entry.exec_program.groups is source.exec_program.groups
        _assert_step_equal(
            patched, cold.run_step([b.copy() for b in noisy], step=0), "weight_patch"
        )

    def test_never_hitting_cache_never_compiles(self, monkeypatch):
        builds = []
        original = ExecProgram.build.__func__

        def counting_build(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(ExecProgram, "build", classmethod(counting_build))
        warm, _, base = self._pair()
        rng = np.random.default_rng(4)
        for step in range(4):
            fresh = [rng.normal(size=b.shape) for b in base]
            assert warm.run_step(fresh, step=step).trace.cache_outcome == "miss"
        assert builds == []
        warm.run_step(fresh, step=3)
        assert builds == [1]


# ----------------------------------------------------------------------
# Trace and telemetry plumbing
# ----------------------------------------------------------------------
class TestCacheTelemetry:
    def test_trace_and_telemetry_outcomes(self):
        num_ranks, experts = 4, 8
        policy, base = _policy_and_batches(
            "softmax-topk", num_ranks=num_ranks, tokens=16, hidden=8,
            experts=experts, top_k=2, seed=6,
        )
        warm, cold = _runtime_pair(policy, "flat", num_ranks, experts, seed=6)
        telemetry = RoutingTelemetry(experts)
        warm.telemetry = telemetry
        for _ in range(3):
            result = warm.run_step([b.copy() for b in base], step=0)
        assert result.trace.cache_outcome == "hit"
        assert result.trace.fused
        assert result.trace.cache_stats["hits"] == 2
        summary = telemetry.summary()
        assert summary["plan_cache_hit_rate"] == round(2 / 3, 4)
        assert summary["plan_cache_hit"] == 2
        assert summary["plan_cache_miss"] == 1

        cold_result = cold.run_step([b.copy() for b in base], step=0)
        assert cold_result.trace.cache_outcome is None
        assert cold_result.trace.cache_stats == {}
        assert not cold_result.trace.fused

    def test_telemetry_summary_without_cache_is_unchanged(self):
        telemetry = RoutingTelemetry(4)
        assert "plan_cache_hit_rate" not in telemetry.summary()
        assert telemetry.plan_cache_hit_rate == 0.0


# ----------------------------------------------------------------------
# Calibration satellite: warn-and-skip + hit-rate-discounted pricing
# ----------------------------------------------------------------------
class TestCalibrationPlanCache:
    def _write(self, path, record):
        path.write_text(json.dumps(record))

    def test_truncated_record_warns_and_skips(self, tmp_path):
        good = {
            "workload": {"assignments": 1000},
            "seconds": {"flat_plan_build": 0.5},
        }
        self._write(tmp_path / "a_good.json", good)
        (tmp_path / "b_truncated.json").write_text('{"workload": {"assign')
        with pytest.warns(UserWarning, match="unreadable benchmark record"):
            calibration = load_calibration(tmp_path)
        assert calibration.plan_build_seconds_per_assignment["flat"] == 0.0005

    def test_malformed_records_warn_and_skip(self, tmp_path):
        (tmp_path / "a_list.json").write_text("[1, 2, 3]")
        self._write(tmp_path / "b_bad_seconds.json", {"workload": {}, "seconds": 3})
        with pytest.warns(UserWarning, match="malformed benchmark record"):
            calibration = load_calibration(tmp_path)
        assert calibration.is_identity

    def test_plan_cache_record_feeds_calibration(self, tmp_path):
        self._write(
            tmp_path / "dispatch_plan_micro.json",
            {"workload": {"assignments": 1000}, "seconds": {"rbd_plan_build": 1.0}},
        )
        self._write(
            tmp_path / "plan_cache_micro.json",
            {
                "workload": {},
                "seconds": {},
                "plan_cache": {"hit_rate": 0.9, "warm_cost_ratio": 0.1},
            },
        )
        calibration = load_calibration(tmp_path)
        assert calibration.plan_cache_hit_rate == 0.9
        assert calibration.plan_cache_warm_cost_ratio == 0.1
        assert not calibration.is_identity
        # 90% of steps pay 10% of the build; 10% pay full price.
        full = 1.0 / 1000 * 500
        discounted = calibration.plan_overhead_seconds("rbd", 500)
        assert discounted == pytest.approx(full * (0.1 + 0.9 * 0.1))
        # hier falls back to the rbd rate, discount included
        assert calibration.plan_overhead_seconds("hier", 500) == discounted

    def test_invalid_plan_cache_block_ignored(self, tmp_path):
        self._write(
            tmp_path / "plan_cache_micro.json",
            {
                "workload": {},
                "seconds": {},
                "plan_cache": {"hit_rate": 1.5, "warm_cost_ratio": 0.1},
            },
        )
        assert load_calibration(tmp_path).is_identity

    def test_discount_math_and_identity(self):
        calibration = Calibration(
            plan_build_seconds_per_assignment={"flat": 2e-6},
            plan_cache_hit_rate=0.5,
            plan_cache_warm_cost_ratio=0.2,
        )
        base = 2e-6 * 1_000
        assert calibration.plan_overhead_seconds("flat", 1_000) == pytest.approx(
            base * (0.5 + 0.5 * 0.2)
        )
        assert not calibration.is_identity
        # a hit rate alone (no measured build rates) is still not identity
        assert not Calibration(plan_cache_hit_rate=0.3).is_identity
        assert Calibration().is_identity
