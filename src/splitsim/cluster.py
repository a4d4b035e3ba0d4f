"""Cluster-level scheduling (CLS): machine pools, JSQ routing of each
request to a (prompt, token) machine pair, overflow into the mixed pool,
pool return, and coarse-grained re-purposing, which runs only when
``ClusterConfig.repurpose_window_s`` is set.

Queue length for JSQ is the number of pending tokens: queued prompts count
their full prompt size, queued or running token tasks count one each.
Baseline designs keep every machine in a single mixed-batching pool and
always route both phases to the same machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .machine import MIXED, PROMPT, TOKEN, Machine, SchedulerConfig
from .perf import LLM_SPECS, PerfModel
from .transfer import TransferConfig, default_transfer_config

# design name -> (prompt machine type, token machine type, baseline?)
DESIGNS = {
    "Baseline-A100": ("A100", "A100", True),
    "Baseline-H100": ("H100", "H100", True),
    "Splitwise-AA": ("A100", "A100", False),
    "Splitwise-HH": ("H100", "H100", False),
    "Splitwise-HHcap": ("H100", "H100cap", False),
    "Splitwise-HA": ("H100", "A100", False),
}

REPURPOSE_FRACTION = 0.5  # mixed-pool share of a window above which a home role flips


def normalize_design(name: str) -> str:
    for design in DESIGNS:
        if design.lower() == name.lower():
            return design
    raise ConfigurationError(f"unknown design {name!r}; expected one of {sorted(DESIGNS)}")


@dataclass
class ClusterConfig:
    design: str
    prompt_machines: int
    token_machines: int
    llm: str = "llama2-70b"
    sched: SchedulerConfig = field(default_factory=SchedulerConfig)
    transfer: TransferConfig | None = None  # None: derived from design and llm
    repurpose_window_s: float | None = None  # None: no re-purposing

    def __post_init__(self):
        self.design = normalize_design(self.design)
        if self.prompt_machines < 0 or self.token_machines < 0:
            raise ConfigurationError("machine counts must be >= 0")
        if self.prompt_machines + self.token_machines < 1:
            raise ConfigurationError("cluster needs at least one machine")
        if self.repurpose_window_s is not None and not 0 < self.repurpose_window_s < math.inf:
            raise ConfigurationError("repurpose_window_s must be finite and > 0")
        if self.is_baseline and self.token_machines not in (0, self.prompt_machines):
            raise ConfigurationError(
                "baseline designs take a single machine count (prompt_machines)")
        if self.transfer is None and not self.is_baseline:
            if self.llm not in LLM_SPECS:
                raise ConfigurationError(
                    f"unknown llm {self.llm!r}; expected one of {sorted(LLM_SPECS)}")
            self.transfer = default_transfer_config(
                self.prompt_type, self.token_type, LLM_SPECS[self.llm].num_layers)

    @property
    def is_baseline(self) -> bool:
        return DESIGNS[self.design][2]

    @property
    def prompt_type(self) -> str:
        return DESIGNS[self.design][0]

    @property
    def token_type(self) -> str:
        return DESIGNS[self.design][1]


class Cluster:
    """Machine pools plus the routing and pool-maintenance policies."""

    def __init__(self, config: ClusterConfig, perf_models: dict[str, PerfModel]):
        self.config = config
        self.machines: dict[int, Machine] = {}
        ptype, ttype, baseline = DESIGNS[config.design]
        for mt in {ptype, ttype}:
            if mt not in perf_models:
                raise ConfigurationError(f"no performance model for machine type {mt}")
        # (machine type, home role, count), numbered in this order
        rows = ([(ptype, MIXED, config.prompt_machines)] if baseline else
                [(ptype, PROMPT, config.prompt_machines), (ttype, TOKEN, config.token_machines)])
        for mt, role, count in rows:
            for _ in range(count):
                mid = len(self.machines)
                self.machines[mid] = Machine(mid, perf_models[mt], home_role=role,
                                             sched=config.sched)
        if not self.machines:
            raise ConfigurationError("cluster has no machines")

    # -- pools -------------------------------------------------------------

    def pool(self, name: str) -> list[Machine]:
        return [m for m in self.machines.values() if m.current_pool == name]

    # -- routing -----------------------------------------------------------

    def _pool_minima(self) -> dict[str, Machine]:
        """Each non-empty pool's least-loaded machine, in one pass.

        Machines are kept in ascending id order, so the first machine with
        the lowest count wins the (pending tokens, id) tie-break.
        """
        best: dict[str, Machine] = {}
        for m in self.machines.values():
            b = best.get(m.current_pool)
            if b is None or m.pending_token_count < b.pending_token_count:
                best[m.current_pool] = m
        return best

    def _pick(self, role: str, minima: dict[str, Machine]) -> Machine:
        """JSQ pick with threshold overflow: own pool, then mixed, then the
        opposite pool (which moves the chosen machine into the mixed pool
        once the opposite-kind task is enqueued)."""
        threshold = self.config.sched.queue_threshold_tokens
        opposite = TOKEN if role == PROMPT else PROMPT
        for name in (role, MIXED, opposite):
            best = minima.get(name)
            if best is not None and best.pending_token_count <= threshold:
                return best
        # every pool saturated: the least-loaded machine, by (pending tokens, id)
        return min(minima.values(), key=lambda m: (m.pending_token_count, m.id))

    def route(self) -> tuple[int, int]:
        """The (prompt, token) machine ids for a request arriving now."""
        minima = self._pool_minima()
        return self._pick(PROMPT, minima).id, self._pick(TOKEN, minima).id

    # -- pool maintenance --------------------------------------------------

    def note_enqueue(self, machine: Machine, kind: str, now: float) -> list[tuple]:
        """Move a machine into the mixed pool when it takes opposite-kind
        work; returns pool transition records."""
        if machine.current_pool == MIXED:
            return []
        if kind != machine.home_role:
            prev = machine.current_pool
            machine.note_pool_change(MIXED, now)
            return [(now, machine.id, prev, MIXED)]
        return []

    def update_pools(self, now: float, mids: list[int]) -> list[tuple]:
        """Return each machine of ``mids`` (ascending ids) that is in the
        mixed pool with no opposite-kind work to its home pool; records
        (time, machine, from, to)."""
        transitions = []
        for m in map(self.machines.get, mids):
            if m.home_role == MIXED or m.current_pool != MIXED:
                continue
            if not m.has_opposite_work():
                m.note_pool_change(m.home_role, now)
                transitions.append((now, m.id, MIXED, m.home_role))
        return transitions

    def repurpose(self, now: float, window: float) -> tuple[list[tuple], list[tuple]]:
        """Flip the home role of machines that spent most of the last
        window in the mixed pool.

        A flipped machine in its old home pool moves to its new one, or to
        the mixed pool while it still holds old-kind work, which
        ``update_pools`` lets drain.  Returns the flips and the pool
        transitions, both as (time, machine, from, to) records.
        """
        flips, transitions = [], []
        for m in self.machines.values():
            if m.home_role == MIXED:
                continue
            frac = m.mixed_residency(now) / window
            m.reset_mixed_residency(now)
            if frac > REPURPOSE_FRACTION:
                old = m.home_role
                m.home_role = TOKEN if old == PROMPT else PROMPT
                flips.append((now, m.id, old, m.home_role))
                if m.current_pool == old:
                    if m.has_opposite_work():
                        m.note_pool_change(MIXED, now)
                        transitions.append((now, m.id, old, MIXED))
                    else:
                        m.note_pool_change(m.home_role, now)
        return flips, transitions
