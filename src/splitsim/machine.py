"""Machine-level scheduling (MLS): per-machine queues, per-iteration batch
formation, memory accounting, and token preemption.

Prompt machines batch prompts FCFS up to a total-token cap; token machines
batch tokens FCFS until memory or the batch-size limit is hit; mixed
machines prioritize prompts and may preempt running token tasks for batch
slots.  Token tasks are taken capped-first: a task preempted
``max_preemptions`` times is non-preemptable and keeps its slot.  The rest
are taken FCFS in arrival order: the engine enqueues at the current event
time, so each queue is already in that order, and ``enqueue`` raises
``InvariantError`` for a token task older than one the machine holds.
Every resident arrived before every task still queued, because admission
stops at a blocked head.  Preemption pauses compute but not residency: a
parked token task keeps its KV memory on the machine, so preemption never
reclaims memory.

Batching reads queue and memory state only, never the clock; only the
mixed-pool residency that drives re-purposing is timed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, ValidationError
from .perf import PerfModel

PROMPT = "prompt"
TOKEN = "token"
MIXED = "mixed"

_MEMORY_SLACK = 1e-6  # bytes of round-off by which memory may exceed capacity


@dataclass
class SchedulerConfig:
    prompt_token_cap: int = 2048
    max_preemptions: int = 4
    queue_threshold_tokens: int = 4096  # CLS overflow threshold (2x prompt cap)
    mixing_rule: str = "sum"           # mixed-batch time: "sum" or "max"

    def __post_init__(self):
        if min(self.prompt_token_cap, self.max_preemptions,
               self.queue_threshold_tokens) <= 0:
            raise ValidationError("scheduler config values must be positive")
        if self.mixing_rule not in ("sum", "max"):
            raise ValidationError("mixing_rule must be 'sum' or 'max'")


@dataclass(eq=False, slots=True)
class Task:
    """One phase of one request on one machine; tasks compare by identity."""

    request_id: int
    kind: str                  # PROMPT or TOKEN
    tokens: int                # prompt size, or context length so far
    enqueue_time: float
    output_tokens: int         # total outputs for the request
    remaining_output: int
    preempt_count: int = 0
    parked: bool = False


@dataclass
class Batch:
    prompt_tasks: list[Task]
    token_tasks: list[Task]
    iteration_time: float  # ms
    prompt_tokens: int = 0  # total prompt tokens
    prompt_ms: float = 0.0  # prompt compute, which a layer-wise transfer overlaps

    @property
    def kind(self):
        if self.prompt_tasks and self.token_tasks:
            return MIXED
        return "prompt_only" if self.prompt_tasks else "token_only"


class Machine:
    """A simulated server owned by the engine's single logical timeline."""

    def __init__(self, machine_id: int, perf: PerfModel, home_role: str,
                 sched: SchedulerConfig):
        self.id = machine_id
        self.perf = perf
        self.home_role = home_role  # MIXED: a baseline machine, always mixed
        self.current_pool = home_role
        self.sched = sched
        self.pending_prompts: list[Task] = []
        self.pending_tokens_q: list[Task] = []
        self.resident: list[Task] = []      # token tasks holding KV memory
        self.running: Batch | None = None
        self.busy_time = 0.0
        self.pending_token_count = 0        # JSQ queue length
        self._resident_context = 0          # sum of resident token contexts
        # admission reserves each task's full final context so that KV
        # growth during generation can never blow past capacity
        self._resident_projected = 0
        self._queued_ids: set[tuple[int, str]] = set()
        # residency bookkeeping for re-purposing
        self.mixed_since: float | None = None
        self.mixed_accum = 0.0

    # -- memory ------------------------------------------------------------

    def memory_used(self) -> float:
        running_prompt = self.running.prompt_tokens if self.running is not None else 0
        return self.perf.weight_memory + \
            self.perf.kv_cache_bytes(self._resident_context + running_prompt)

    def _memory_fits(self, extra_tokens: int) -> bool:
        projected = self.perf.weight_memory + \
            self.perf.kv_cache_bytes(self._resident_projected + extra_tokens)
        return projected <= self.perf.memory_capacity + _MEMORY_SLACK

    def check_memory(self) -> None:
        """Raise ``InvariantError`` when the machine holds more than fits."""
        used = self.memory_used()
        if used > self.perf.memory_capacity + _MEMORY_SLACK:
            raise InvariantError(f"machine {self.id} memory {used:.3e} exceeds "
                                 f"capacity {self.perf.memory_capacity:.3e}")

    # -- queueing ----------------------------------------------------------

    def enqueue(self, task: Task) -> None:
        key = (task.request_id, task.kind)
        if key in self._queued_ids:
            raise InvariantError(f"duplicate task {key} on machine {self.id}")
        if task.kind == PROMPT:
            self.pending_prompts.append(task)
            self.pending_token_count += task.tokens
        else:
            held = self.pending_tokens_q or self.resident
            if held and task.enqueue_time < held[-1].enqueue_time:
                raise InvariantError(f"token task {key} enqueued at {task.enqueue_time} "
                                     f"after one of {held[-1].enqueue_time} on machine {self.id}")
            self.pending_tokens_q.append(task)
            self.pending_token_count += 1
        self._queued_ids.add(key)

    def has_opposite_work(self) -> bool:
        """True while tasks of the non-home kind are pending or running."""
        if self.home_role == PROMPT:
            if self.pending_tokens_q or self.resident:
                return True
            return self.running is not None and bool(self.running.token_tasks)
        if self.pending_prompts:
            return True
        return self.running is not None and bool(self.running.prompt_tasks)

    # -- batch formation ---------------------------------------------------

    def form_batch(self) -> Batch | None:
        """Decide the batch for the next iteration, or None if idle: the one
        judge of whether the machine can start a batch.

        Called only at iteration boundaries.  Side effects: admitted queue
        tasks become resident (token) or leave the queue (prompt); parked
        residents may resume; token tasks bumped out of the previous batch
        are parked with their preempt count incremented.
        """
        if self.running is not None:
            raise InvariantError("form_batch called mid-iteration")
        if not (self.pending_prompts or self.pending_tokens_q or self.resident):
            return None
        sched = self.sched
        perf = self.perf
        pool = self.current_pool
        cap = sched.max_preemptions
        resident = self.resident
        capped = [t for t in resident if t.preempt_count >= cap]

        prompt_batch: list[Task] = []
        prompt_tokens = 0
        pending = self.pending_prompts
        if pending and pool != TOKEN:
            slots = len(pending)  # no slot limit in the prompt pool
            if pool == MIXED:
                # non-preemptable resident tokens keep their slots ahead of prompts
                slots = perf.max_token_batch - sum(1 for t in capped if not t.parked)
            for task in pending:
                if len(prompt_batch) >= slots:
                    break
                # always admit the head prompt, even above the cap
                if prompt_batch and prompt_tokens + task.tokens > sched.prompt_token_cap:
                    break
                if not self._memory_fits(prompt_tokens + task.tokens):
                    break
                prompt_batch.append(task)
                prompt_tokens += task.tokens
            # note: pending_token_count keeps counting admitted prompts until
            # they finish, so JSQ sees in-flight prompt work
            del pending[:len(prompt_batch)]
            for task in prompt_batch:
                self._queued_ids.discard((task.request_id, PROMPT))

        token_batch: list[Task] = []
        if pool != PROMPT:
            slots = perf.max_token_batch - len(prompt_batch)
            # capped residents first, then the rest FCFS; queued tasks come
            # after every resident and have never run, so none is capped
            ranked = resident
            if capped:
                ranked = capped + [t for t in resident if t.preempt_count < cap]
            token_batch = ranked[:slots]
            queue = self.pending_tokens_q
            admitted = 0
            for task in queue:
                if len(token_batch) >= slots:
                    break
                need = task.tokens + task.remaining_output
                if not self._memory_fits(prompt_tokens + need):
                    break  # FCFS: do not skip ahead of a blocked task
                self._resident_projected += need
                self._resident_context += task.tokens
                token_batch.append(task)
                admitted += 1
            # resident tokens that lost their slot get parked
            for task in ranked[slots:]:
                if not task.parked:
                    task.parked = True
                    task.preempt_count += 1
            for task in token_batch:
                task.parked = False
            for task in queue[:admitted]:
                self._queued_ids.discard((task.request_id, TOKEN))
                resident.append(task)
            del queue[:admitted]

        if not prompt_batch and not token_batch:
            return None
        prompt_ms = perf.prompt_time(prompt_tokens) if prompt_batch else 0.0
        token_ms = perf.token_iter_time(len(token_batch)) if token_batch else 0.0
        if prompt_batch and token_batch and sched.mixing_rule == "max":
            iteration_ms = max(prompt_ms, token_ms)
        else:
            iteration_ms = prompt_ms + token_ms
        return Batch(prompt_batch, token_batch, iteration_ms, prompt_tokens, prompt_ms)

    # -- iteration completion ---------------------------------------------

    def complete_iteration(self) -> None:
        """Apply the running batch's finished iteration to the machine.

        Each prompt task has emitted its first token; each token task has
        emitted one more, and one with no ``remaining_output`` is finished
        and releases its memory.
        """
        batch = self.running
        if batch is None:
            raise InvariantError("completing an iteration with no batch running")
        # prompt KV leaves this machine (transferred or handed to the local
        # token task, which is charged separately on admission)
        for task in batch.prompt_tasks:
            self.pending_token_count -= task.tokens
        for task in batch.token_tasks:
            task.tokens += 1
            task.remaining_output -= 1
            self._resident_context += 1
            if task.remaining_output == 0:
                self.resident.remove(task)
                self._resident_context -= task.tokens
                self._resident_projected -= task.tokens
                self.pending_token_count -= 1
        self.running = None

    def unchanged_repeats(self) -> int:
        """How many more iterations the running batch repeats unchanged: a
        token-only batch of every resident, with nothing queued to join it,
        repeats until its first task finishes."""
        batch = self.running
        if batch.prompt_tasks or self.pending_prompts or self.pending_tokens_q \
                or len(batch.token_tasks) != len(self.resident):
            return 0
        return min(t.remaining_output for t in batch.token_tasks) - 1

    def repeat_iterations(self, k: int) -> None:
        """Apply ``k`` iterations of the running token-only batch in which
        no task finishes; the batch keeps running."""
        for task in self.running.token_tasks:
            task.tokens += k
            task.remaining_output -= k
        self._resident_context += k * len(self.running.token_tasks)

    # -- pool residency tracking ------------------------------------------

    def note_pool_change(self, new_pool: str, now: float) -> None:
        if self.current_pool == MIXED and new_pool != MIXED and self.mixed_since is not None:
            self.mixed_accum += now - self.mixed_since
            self.mixed_since = None
        if new_pool == MIXED and self.current_pool != MIXED:
            self.mixed_since = now
        self.current_pool = new_pool

    def mixed_residency(self, now: float) -> float:
        """Mixed-pool time accumulated since the last window reset."""
        extra = (now - self.mixed_since) if self.mixed_since is not None else 0.0
        return self.mixed_accum + extra

    def reset_mixed_residency(self, now: float) -> None:
        self.mixed_accum = 0.0
        if self.mixed_since is not None:
            self.mixed_since = now
