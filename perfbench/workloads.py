"""The benchmark's three workloads.

Each workload runs one fixed model with real SiLU expert weights on inputs
made from its seed, and is driven only through the program's public calls.  ``build()`` makes a fresh
instance and warms it up (the set-up the benchmark times); ``measure()``
runs timed steps for a wall-clock budget; ``check()`` verifies outputs
against an oracle.  With a :class:`~benchcore.SpanRecorder`, ``measure()``
alternates traced and untraced steps, so the tracing overhead is an A/B
inside one process.

* ``train-zero2`` — DP=4 ZeRO-2 training of a fine-grained MoE LM on the
  autograd engine: the only path through backward, bucketed reduce-scatter
  and sharded Adam.  It bypasses the planner, plan cache, runtime and
  serving, so a change there should leave it unchanged.
* ``ep-rbd-recompute`` — an EP=16 step runtime with RBD dispatch and a plan
  cache, 64 experts, top-6, Zipf-skewed tokens.  Each step routes a fresh
  batch and then re-runs it, as activation checkpointing recomputes an MoE
  layer in backward: half of all cache lookups hit, so this is the workload
  that exercises the cache's hit path and the fused replay.
* ``serve-poisson`` — Poisson arrivals on a wall-clock open loop into a
  continuous-batching engine.  Tiny batches over thousands of steps, where
  fixed per-call cost dominates; the cache never hits, so it pays the miss
  path only.  It runs at about three quarters of the rate where TTFT p90
  blows up on a 2-core host, below the knee where latency rises first.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from benchcore import SpanRecorder, median, quantile

from repro.cluster.topology import LinkTier
from repro.comm import CommWorld
from repro.config.parallel_config import ZeroStage
from repro.dist import ZeroOptimizer
from repro.moe import MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.routing import PlanCache, make_dispatcher, make_policy
from repro.routing.policies import skewed_router_tokens
from repro.runtime import StepRuntime
from repro.serving import ServingEngine
from repro.serving.request import Request, RequestStatus
from repro.tensor import Adam
from repro.xmoe.pipeline import PaddingFreeMoELayer

#: collectives that record their own comm event; none calls another, so
#: ``comm`` spans never nest.  ``alltoallv`` and ``alltoall_single``
#: delegate to ``alltoall`` and are covered by its span.
COMM_PRIMITIVES = (
    "alltoall",
    "alltoallv_planned",
    "allgather",
    "allreduce",
    "reduce_scatter",
    "broadcast",
)
INTER_NODE_TIERS = (LinkTier.INTER_NODE, LinkTier.CROSS_RACK)
#: timed steps over which per-layer counts are taken (a fixed window, so
#: counts repeat exactly for a seed however many steps the clock allows).
COUNT_WINDOW = 20
#: seed of the model itself (initial weights, router and expert weights,
#: RBD pilot salt): every run measures the same model, and ``--seed``
#: varies only its inputs, so seeds do not change how much work a step is.
MODEL_SEED = 0


def router_weight(hidden: int, experts: int) -> np.ndarray:
    """The model's router projection."""
    return np.random.default_rng((MODEL_SEED, 0)).normal(0.0, 0.02, size=(hidden, experts))


def expert_weights(ranks: int, experts_per_rank: int, hidden: int, ffn: int):
    """Per-rank stacked SiLU expert weights, fan-in scaled."""
    rng = np.random.default_rng((MODEL_SEED, 7))
    w1 = [
        rng.normal(0.0, hidden**-0.5, size=(experts_per_rank, hidden, ffn))
        for _ in range(ranks)
    ]
    w2 = [
        rng.normal(0.0, ffn**-0.5, size=(experts_per_rank, ffn, hidden))
        for _ in range(ranks)
    ]
    return w1, w2


def per_step_ms(seconds: dict[str, float], key: str, steps: int) -> float:
    """Milliseconds per step spent in spans named ``key``."""
    return seconds.get(key, 0.0) * 1e3 / steps


class Workload:
    """Shared closed-loop driver: untimed prepare, timed step, untimed verify."""

    name = ""
    min_steps = 100
    #: timed steps the per-layer counts cover; None covers every step.
    count_window: int | None = COUNT_WINDOW

    def __init__(self, seed: int, min_steps: int | None = None):
        self.seed = seed
        if min_steps is not None:
            self.min_steps = min_steps
        self.rec: SpanRecorder | None = None
        self.tracing = False
        self.step_s: list[float] = []
        self.traced_step_s: list[float] = []
        self.event_marks: list[int] = []

    def span(self, name: str):
        """A span from the benchmark's own code (a no-op when untraced)."""
        return self.rec.span(name) if self.tracing else nullcontext()

    # -- per-workload hooks ---------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def instrument(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        return None

    def timed(self, index: int, inputs) -> None:
        raise NotImplementedError

    def verify(self, index: int, inputs) -> None:
        return None

    def stats(self):
        """The :class:`~repro.comm.CommStats` whose events the counts read."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def measure(self, seconds: float, rec: SpanRecorder | None = None) -> None:
        """Run steps for ``seconds``, and at least ``min_steps`` steps.

        With ``rec``, every other step is traced; untraced steps run with
        every wrapper detached, exactly like a run without tracing.
        """
        self.rec = rec
        if rec is not None:
            self.instrument(rec)
        events = self.stats().events
        deadline = time.perf_counter() + seconds
        index = 0
        while (
            time.perf_counter() < deadline
            or len(self.step_s) + len(self.traced_step_s) < self.min_steps
        ):
            inputs = self.prepare(index)
            self.tracing = rec is not None and index % 2 == 1
            self.event_marks.append(len(events))
            if self.tracing:
                rec.attach()
                start = time.perf_counter()
                with rec.span("bench.step"):
                    self.timed(index, inputs)
                self.traced_step_s.append(time.perf_counter() - start)
                rec.detach()
            else:
                start = time.perf_counter()
                self.timed(index, inputs)
                self.step_s.append(time.perf_counter() - start)
            self.tracing = False
            self.verify(index, inputs)
            index += 1
        self.event_marks.append(len(events))

    def in_window(self, index: int) -> bool:
        """Whether timed step ``index`` falls in the count window."""
        return self.count_window is None or index < self.count_window

    def window_events(self):
        """Comm events of the timed steps in the count window."""
        steps = len(self.event_marks) - 1
        if self.count_window is not None:
            steps = min(self.count_window, steps)
        return self.stats().events[self.event_marks[0] : self.event_marks[steps]], steps

    def comm_metrics(self) -> dict[str, float]:
        """Simulated collective calls and bytes per step in the count window."""
        events, steps = self.window_events()
        inter = sum(
            float(e.bytes_by_tier.get(tier, 0.0)) for e in events for tier in INTER_NODE_TIERS
        )
        return {
            "comm.calls": len(events) / steps,
            "comm.bytes": sum(e.total_bytes for e in events) / steps,
            "comm.inter_node_bytes": inter / steps,
        }

    def end_to_end(self) -> dict[str, float]:
        """Step-time metrics shared by every workload.

        The mean, not the median, is gated.  On a shared host whose CPU speed
        flips between two modes within seconds, the median over steps jumps
        from one mode to the other when a run spends about half its time in
        each, while the mean moves in proportion.  The median is reported
        beside it.
        """
        return {
            "step_ms_mean": sum(self.step_s) / len(self.step_s) * 1e3,
            "step_ms_p90": quantile(self.step_s, 0.9) * 1e3,
        }

    def trace_metrics(self) -> dict[str, float]:
        """Tracing overhead and the share of step time spans attribute."""
        rec = self.rec
        return {
            "trace.overhead_frac": median(self.traced_step_s) / median(self.step_s) - 1.0,
            "trace.coverage": rec.coverage("bench.step"),
        }


# ----------------------------------------------------------------------
class TrainZero2(Workload):
    """DP=4 ZeRO-2 training of a fine-grained MoE LM (autograd engine)."""

    name = "train-zero2"
    dp = 4
    lr = 3e-3
    bucket_bytes = 32 << 10
    warmup = 3
    #: steps the ZeRO-0 oracle replays (warm-up included).
    oracle_steps = 13
    #: ``loss_final`` averages the LM loss over this many steps ending at
    #: the fixed step count ``warmup + min_steps``.
    loss_window = 10

    def config(self) -> TransformerConfig:
        return TransformerConfig(
            vocab_size=64,
            hidden_size=64,
            ffn_hidden_size=32,
            num_experts=32,
            top_k=6,
            num_layers=2,
            seq_length=64,
            router_seed=MODEL_SEED,
        )

    def replicas(self) -> list[MoETransformerLM]:
        config = self.config()
        return [
            MoETransformerLM(
                config,
                lambda gate, experts, cap: PaddingFreeMoELayer(gate, experts, cap),
                seed=MODEL_SEED,
            )
            for _ in range(self.dp)
        ]

    def datasets(self) -> list[SyntheticLMDataset]:
        config = self.config()
        return [
            SyntheticLMDataset(
                config.vocab_size, config.seq_length, seed=self.dp * self.seed + r
            )
            for r in range(self.dp)
        ]

    def build(self) -> None:
        self.world = CommWorld(num_ranks=self.dp)
        self.group = self.world.world_group()
        self.models = self.replicas()
        self.optimizer = ZeroOptimizer(
            [m.parameters() for m in self.models],
            self.group,
            stage=ZeroStage.GRADIENTS,
            lr=self.lr,
            bucket_bytes=self.bucket_bytes,
        )
        self.data = self.datasets()
        self.losses: list[float] = []
        self.tokens_per_step = 0
        for _ in range(self.warmup):
            self.timed(-1, None)

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.group, "reduce_scatter", "grad_sync")
        rec.wrap(self.group, "allgather", "allgather")

    def stats(self):
        return self.world.stats

    def timed(self, index: int, inputs) -> None:
        with self.span("data"):
            sequences = [ds.sample_sequence() for ds in self.data]
        with self.span("zero_grad"):
            self.optimizer.zero_grad()
        total = 0.0
        for model, seq in zip(self.models, sequences):
            with self.span("forward"):
                loss, lm_loss = model.loss(seq)
            with self.span("backward"):
                loss.backward()
            total += lm_loss
        with self.span("optim"):
            self.optimizer.step()
        self.losses.append(total / self.dp)
        self.tokens_per_step = sum(len(seq) - 1 for seq in sequences)

    def oracle_losses(self, steps: int) -> list[float]:
        """ZeRO-0 unsharded oracle: stack-sum-divide gradients, plain Adam."""
        models = self.replicas()
        params = [m.parameters() for m in models]
        adam = Adam(params[0], lr=self.lr)
        data = self.datasets()
        losses = []
        for _ in range(steps):
            sequences = [ds.sample_sequence() for ds in data]
            for plist in params:
                for p in plist:
                    p.grad = None
            total = 0.0
            for model, seq in zip(models, sequences):
                loss, lm_loss = model.loss(seq)
                loss.backward()
                total += lm_loss
            for i, p in enumerate(params[0]):
                grads = [
                    plist[i].grad if plist[i].grad is not None else np.zeros_like(p.data)
                    for plist in params
                ]
                p.grad = np.stack(grads).sum(axis=0) / self.dp
            adam.step()
            for plist in params[1:]:
                for dst, src in zip(plist, params[0]):
                    np.copyto(dst.data, src.data)
            losses.append(total / self.dp)
        return losses

    def check(self) -> tuple[int, int, dict]:
        steps = min(self.oracle_steps, len(self.losses))
        oracle = self.oracle_losses(steps)
        mismatched = sum(a != b for a, b in zip(self.losses[:steps], oracle))
        attempted = len(self.step_s) + len(self.traced_step_s)
        return attempted, mismatched, {
            "oracle_steps": steps,
            "oracle_mismatched_steps": mismatched,
        }

    def end_to_end(self) -> dict[str, float]:
        out = super().end_to_end()
        out["tokens_per_s"] = self.tokens_per_step * len(self.step_s) / sum(self.step_s)
        return out

    def extra(self) -> dict[str, float]:
        end = self.warmup + self.min_steps
        window = self.losses[max(0, end - self.loss_window) : end]
        return {"loss_final": float(np.mean(window)), "cache_hit_share": 0.0}

    def per_layer(self) -> dict[str, float]:
        rec = self.rec
        n = len(self.traced_step_s)
        inc = rec.inclusive()
        events, steps = self.window_events()
        rs = [e for e in events if e.op == "reduce_scatter"]
        state = self.optimizer.measured_state_bytes(0)

        def ms(key: str) -> float:
            return per_step_ms(inc, key, n)

        return {
            **self.comm_metrics(),
            "forward.ms": ms("forward"),
            "backward.ms": ms("backward"),
            "grad_sync.ms": ms("grad_sync"),
            "grad_sync.buckets": len(rs) / steps,
            "grad_sync.bytes": sum(e.total_bytes for e in rs) / steps,
            "optim.ms": ms("optim"),
            "allgather.ms": ms("allgather"),
            "zero.state_mb": sum(state.values()) / 2**20,
            "comm.ms": ms("grad_sync") + ms("allgather"),
        }


# ----------------------------------------------------------------------
def instrument_runtime(rec: SpanRecorder, runtime: StepRuntime) -> None:
    """Span the step runtime and every routing layer it calls into."""
    dispatcher = runtime.dispatcher
    rec.wrap(runtime, "run_step", "runtime.step")
    rec.wrap(runtime.policy, "route_batch", "route")
    if runtime.plan_cache is not None:
        rec.wrap(runtime.plan_cache, "resolve", "plan_cache.resolve")
    rec.wrap(dispatcher, "plan", "planner.build")
    rec.wrap(dispatcher, "dispatch", "dispatch")
    rec.wrap(dispatcher, "run_experts", "experts")
    rec.wrap(dispatcher, "combine", "combine")
    for group in [dispatcher.group, *dispatcher.node_groups()]:
        for attr in COMM_PRIMITIVES:
            rec.wrap(group, attr, "comm")


class RuntimeLayers:
    """Per-step routing-layer counters gathered from step results."""

    def __init__(self, hidden: int, ffn: int):
        self.flops_per_row = 4.0 * hidden * ffn
        self.calls = 0
        self.fused = 0
        self.sent_rows = 0
        self.assignments = 0
        self.traced_flops = 0.0
        self.window_sent_rows = 0

    def record(self, trace, *, traced: bool, in_window: bool) -> None:
        """Count one ``run_step`` from its :class:`~repro.runtime.StepTrace`."""
        plan = trace.plan
        self.calls += 1
        self.fused += int(trace.fused)
        self.sent_rows += plan.sent_rows()
        self.assignments += plan.total_assignments
        if traced:
            # Padding-free experts run one GEMM row per routed assignment.
            self.traced_flops += self.flops_per_row * trace.dispatched_rows
        if in_window:
            self.window_sent_rows += plan.sent_rows()

    def metrics(self, rec: SpanRecorder, steps: int, window_steps: int) -> dict:
        inc = rec.inclusive()

        def ms(key: str) -> float:
            return per_step_ms(inc, key, steps)

        experts_s = inc.get("experts", 0.0)
        return {
            "route.ms": ms("route"),
            "plan_cache.resolve.ms": ms("plan_cache.resolve"),
            "planner.build.ms": ms("planner.build"),
            "dispatch.ms": ms("dispatch"),
            "experts.ms": ms("experts"),
            "combine.ms": ms("combine"),
            "runtime.self.ms": per_step_ms(rec.self_time(), "runtime.step", steps),
            "plan_cache.fused_frac": self.fused / max(1, self.calls),
            "dispatch.rows": self.window_sent_rows / max(1, window_steps),
            "dispatch.rows_per_assignment": self.sent_rows / max(1, self.assignments),
            "experts.gflops": self.traced_flops / experts_s / 1e9 if experts_s else 0.0,
            "comm.ms": ms("comm"),
        }


def cache_hit_share(cache: PlanCache, before: dict) -> float:
    """Share of lookups since ``before`` that skipped the plan build."""
    after = cache.stats()
    lookups = after["lookups"] - before["lookups"]
    hits = after["hits"] + after["weight_patches"] - before["hits"] - before["weight_patches"]
    return hits / lookups if lookups else 0.0


class EpRbdRecompute(Workload):
    """EP=16 RBD step runtime with a plan cache: fresh pass + recompute."""

    name = "ep-rbd-recompute"
    ranks = 16
    experts = 64
    top_k = 6
    hidden = 128
    ffn = 128
    tokens = 128
    skew = 1.2
    warmup = 3
    #: timed steps whose fresh outputs are re-checked against the flat,
    #: no-cache oracle (drawn from the seed among the first ``min_steps``).
    oracle_samples = 2

    def make_runtime(self, kind: str, cache: bool) -> StepRuntime:
        world = CommWorld(num_ranks=self.ranks)
        policy = make_policy(
            "softmax-topk",
            self.hidden,
            self.experts,
            self.top_k,
            weight=self.router_weight.copy(),
            seed=MODEL_SEED,
        )
        dispatcher = make_dispatcher(
            world.world_group(), self.experts, kind=kind, seed=MODEL_SEED
        )
        return StepRuntime(
            policy,
            dispatcher,
            expert_weights=self.weights,
            plan_cache=PlanCache() if cache else None,
        )

    def build(self) -> None:
        self.router_weight = router_weight(self.hidden, self.experts)
        self.weights = expert_weights(
            self.ranks, self.experts // self.ranks, self.hidden, self.ffn
        )
        self.runtime = self.make_runtime("rbd", cache=True)
        self.data_rng = np.random.default_rng((self.seed, 1))
        self.layers = RuntimeLayers(self.hidden, self.ffn)
        self.mismatches = 0
        pick = np.random.default_rng((self.seed, 2))
        self.samples = set(
            pick.choice(self.min_steps, size=min(self.oracle_samples, self.min_steps),
                        replace=False).tolist()
        )
        self.sampled: dict[int, tuple] = {}
        warm_rng = np.random.default_rng((self.seed, 3))
        # Step salts seed RBD pilot selection and must be non-negative; the
        # warm-up's are kept apart from the timed steps' 0, 1, 2, ...
        for i in range(self.warmup):
            batch = self.batch(warm_rng)
            self.runtime.run_step(batch, step=10**6 + i)
            self.runtime.run_step(batch, step=10**6 + i)
        self.cache_before = self.runtime.plan_cache.stats()

    def batch(self, rng) -> list[np.ndarray]:
        weight = self.router_weight
        return [
            skewed_router_tokens(rng, self.tokens, weight, skew=self.skew)
            for _ in range(self.ranks)
        ]

    def instrument(self, rec: SpanRecorder) -> None:
        instrument_runtime(rec, self.runtime)

    def stats(self):
        return self.runtime.dispatcher.group.world.stats

    def prepare(self, index: int):
        return self.batch(self.data_rng)

    def timed(self, index: int, batch) -> None:
        self.fresh = self.runtime.run_step(batch, step=index)
        with self.span("recompute"):
            self.recomputed = self.runtime.run_step(batch, step=index)

    def verify(self, index: int, batch) -> None:
        traced = index % 2 == 1 and self.rec is not None
        in_window = self.in_window(index)
        for result in (self.fresh, self.recomputed):
            self.layers.record(result.trace, traced=traced, in_window=in_window)
        same = all(
            np.array_equal(a, b)
            for a, b in zip(self.fresh.outputs, self.recomputed.outputs)
        )
        self.mismatches += int(not same)
        if index in self.samples:
            self.sampled[index] = (batch, [o.copy() for o in self.fresh.outputs])
        self.fresh = self.recomputed = None

    def check(self) -> tuple[int, int, dict]:
        oracle = self.make_runtime("flat", cache=False)
        oracle_failed = 0
        for index, (batch, outputs) in sorted(self.sampled.items()):
            expected = oracle.run_step(batch, step=index).outputs
            oracle_failed += int(
                not all(np.array_equal(a, b) for a, b in zip(outputs, expected))
            )
        attempted = len(self.step_s) + len(self.traced_step_s)
        failed = self.mismatches + oracle_failed
        return attempted, failed, {
            "recompute_mismatched_steps": self.mismatches,
            "oracle_steps": len(self.sampled),
            "oracle_mismatched_steps": oracle_failed,
        }

    def end_to_end(self) -> dict[str, float]:
        out = super().end_to_end()
        out["tokens_per_s"] = self.ranks * self.tokens * len(self.step_s) / sum(self.step_s)
        return out

    def extra(self) -> dict[str, float]:
        return {"cache_hit_share": cache_hit_share(self.runtime.plan_cache, self.cache_before)}

    def per_layer(self) -> dict[str, float]:
        rec = self.rec
        n = len(self.traced_step_s)
        _, steps = self.window_events()
        return {
            **self.layers.metrics(rec, n, steps),
            **self.comm_metrics(),
            "recompute.ms": per_step_ms(rec.inclusive(), "recompute", n),
            "plan_cache.hit_rate": self.extra()["cache_hit_share"],
        }


# ----------------------------------------------------------------------
class ServePoisson(Workload):
    """Open-loop Poisson arrivals into a continuous-batching engine."""

    name = "serve-poisson"
    #: batches depend on arrival timing, so no window makes counts repeat;
    #: count every step instead of the unrepresentative ramp-up.
    count_window = None
    slots = 8
    experts = 32
    top_k = 4
    hidden = 64
    ffn = 64
    prefill_chunk = 8
    prompt_rows = (8, 32)
    new_tokens = (8, 48)
    #: requests per second, about 75% of where TTFT p90 jumps on a 2-core host.
    rate = 30.0
    warmup_requests = 8
    #: requests re-served alone to check batching invariance.
    alone_samples = 8

    def make_engine(self) -> ServingEngine:
        world = CommWorld(num_ranks=self.slots)
        policy = make_policy(
            "softmax-topk",
            self.hidden,
            self.experts,
            self.top_k,
            weight=self.router_weight.copy(),
            seed=MODEL_SEED,
        )
        dispatcher = make_dispatcher(world.world_group(), self.experts, kind="flat")
        runtime = StepRuntime(
            policy, dispatcher, expert_weights=self.weights, plan_cache=PlanCache()
        )
        return ServingEngine(runtime, prefill_chunk=self.prefill_chunk)

    def requests(self, rng, count: int, prefix: str) -> list[Request]:
        out = []
        for i in range(count):
            rows = int(rng.integers(self.prompt_rows[0], self.prompt_rows[1] + 1))
            budget = int(rng.integers(self.new_tokens[0], self.new_tokens[1] + 1))
            out.append(
                Request(f"{prefix}-{i:05d}", rng.standard_normal((rows, self.hidden)), budget)
            )
        return out

    def build(self) -> None:
        self.router_weight = router_weight(self.hidden, self.experts)
        self.weights = expert_weights(
            self.slots, self.experts // self.slots, self.hidden, self.ffn
        )
        self.engine = self.make_engine()
        for request in self.requests(np.random.default_rng((self.seed, 3)),
                                     self.warmup_requests, "warm"):
            self.engine.submit(request)
        self.engine.run_until_drained()
        self.cache_before = self.engine.runtime.plan_cache.stats()

    def instrument(self, rec: SpanRecorder) -> None:
        instrument_runtime(rec, self.engine.runtime)

    def stats(self):
        return self.engine.runtime.dispatcher.group.world.stats

    def measure(self, seconds: float, rec: SpanRecorder | None = None) -> None:
        """Submit on a wall-clock schedule; step the engine whenever it has work.

        Arrivals are a Poisson process conditioned on its count: the number
        of requests is fixed by ``rate * seconds`` and their due times are
        sorted uniform draws, which keeps the offered load equal across
        seeds.  Each request is timed from its due time.
        """
        self.rec = rec
        if rec is not None:
            self.instrument(rec)
        engine = self.engine
        rng = np.random.default_rng((self.seed, 1))
        count = max(self.alone_samples, int(round(self.rate * seconds)))
        offsets = np.sort(rng.uniform(0.0, max(seconds, 1e-3), size=count))
        self.reqs = self.requests(rng, count, "req")
        self.states = []
        self.late_s: list[float] = []
        self.depth: list[tuple[float, int]] = []
        self.occupied = self.slot_steps = self.tokens = 0
        layers = RuntimeLayers(self.hidden, self.ffn)
        self.layers = layers
        t0 = time.perf_counter()
        self.due = t0 + offsets
        submitted = 0
        index = 0
        events = self.stats().events
        self.event_marks = [len(events)]
        while submitted < count or engine.has_work:
            now = time.perf_counter()
            if submitted < count and self.due[submitted] > now and not engine.has_work:
                time.sleep(self.due[submitted] - now)
                continue
            self.tracing = rec is not None and index % 2 == 1
            if self.tracing:
                rec.attach()
            start = time.perf_counter()
            with self.span("bench.step"):
                with self.span("serve.submit"):
                    while submitted < count and self.due[submitted] <= time.perf_counter():
                        self.states.append(engine.submit(self.reqs[submitted]))
                        self.late_s.append(time.perf_counter() - self.due[submitted])
                        submitted += 1
                with self.span("serve.engine_step"):
                    report = engine.step()
            elapsed = time.perf_counter() - start
            if self.tracing:
                rec.detach()
                self.traced_step_s.append(elapsed)
            else:
                self.step_s.append(elapsed)
            self.tracing = False
            self.event_marks.append(len(events))
            self.depth.append((start - t0, len(engine.queue)))
            if report.trace is not None:
                self.slot_steps += len(report.occupancy)
                self.occupied += sum(slot is not None for slot in report.occupancy)
                self.tokens += report.tokens_emitted
                layers.record(
                    report.trace,
                    traced=rec is not None and index % 2 == 1,
                    in_window=self.in_window(index),
                )
            index += 1
        self.offsets = offsets

    def backlog_grew(self) -> bool:
        """Whether the queue kept growing over the arrival window.

        Compares the mean backlog over the last third of the window with
        the first third; an open loop below saturation keeps them equal.
        """
        span = float(self.offsets[-1]) if len(self.offsets) else 0.0
        first = [d for t, d in self.depth if t < span / 3]
        last = [d for t, d in self.depth if 2 * span / 3 <= t < span]
        if not first or not last:
            return False
        return float(np.mean(last)) > 2.0 * float(np.mean(first)) + 1.0

    def served_alone(self, request: Request) -> list:
        engine = self.make_engine()
        state = engine.submit(request)
        engine.run_until_drained()
        return state.stream.history

    def check(self) -> tuple[int, int, dict]:
        incomplete = sum(s.status is not RequestStatus.COMPLETED for s in self.states)
        incomplete += len(self.reqs) - len(self.states)
        pick = np.random.default_rng((self.seed, 2))
        sample = pick.choice(len(self.states), size=self.alone_samples, replace=False)
        mismatched = 0
        vector_diff = 0.0
        for i in sorted(sample.tolist()):
            state = self.states[i]
            alone = self.served_alone(state.request)
            together = state.stream.history
            same = len(alone) == len(together) and all(
                a.token_id == b.token_id for a, b in zip(alone, together)
            )
            mismatched += int(not same)
            # The output rows themselves may differ in the last bits: BLAS
            # picks its GEMM kernel by row count, and an expert's row count
            # depends on which requests share the step.
            if same:
                vector_diff = max(
                    vector_diff,
                    *(float(np.abs(a.vector - b.vector).max())
                      for a, b in zip(alone, together)),
                )
        grew = self.backlog_grew()
        failed = incomplete + mismatched + int(grew)
        return len(self.reqs), failed, {
            "incomplete_requests": incomplete,
            "alone_checked": self.alone_samples,
            "alone_mismatched": mismatched,
            "alone_max_vector_diff": vector_diff,
            "backlog_grew": grew,
        }

    def completed(self) -> list[tuple]:
        """``(state, due time)`` of every request that completed."""
        return [
            (s, due)
            for s, due in zip(self.states, self.due)
            if s.status is RequestStatus.COMPLETED
        ]

    def end_to_end(self) -> dict[str, float]:
        out = super().end_to_end()
        finished = max(s.wall["finished"] for s, _ in self.completed())
        out["tokens_per_s"] = self.tokens / (finished - self.due[0])
        return out

    def extra(self) -> dict[str, float]:
        done = self.completed()
        ttft = [(s.wall["first_token"] - due) * 1e3 for s, due in done]
        latency = [(s.wall["finished"] - due) * 1e3 for s, due in done]
        valid = bool(done) and not self.backlog_grew()
        out = {"cache_hit_share": cache_hit_share(self.engine.runtime.plan_cache,
                                                  self.cache_before)}
        for label, values in (("ttft", ttft), ("latency", latency)):
            for q in (50, 90):
                out[f"{label}_ms_p{q}"] = quantile(values, q / 100) if valid else None
        return out

    def per_layer(self) -> dict[str, float]:
        rec = self.rec
        n = len(self.traced_step_s)
        _, steps = self.window_events()
        return {
            **self.layers.metrics(rec, n, steps),
            **self.comm_metrics(),
            "plan_cache.hit_rate": self.extra()["cache_hit_share"],
            "serve.runtime.ms": per_step_ms(rec.inclusive(), "runtime.step", n),
            "serve.engine.ms": per_step_ms(rec.self_time(), "serve.engine_step", n),
            "serve.idle_slot_frac": 1.0 - self.occupied / max(1, self.slot_steps),
            "serve.tokens_per_step": self.tokens / max(1, self.layers.calls),
            "serve.queue_depth_p90": quantile([d for _, d in self.depth], 0.9),
            "serve.generator_late_ms_p90": quantile(self.late_s, 0.9) * 1e3,
        }


WORKLOADS = {cls.name: cls for cls in (TrainZero2, EpRbdRecompute, ServePoisson)}
