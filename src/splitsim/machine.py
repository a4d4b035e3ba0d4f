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

A token iteration costs no per-task work unless its batch changes.  Each
machine keeps one list of its token iterations' end times, ``ends``.  A
token task records only the segments of that list during which it was in
the batch: it entered at index ``a`` and left (finished or parked) at index
``b``, and its emissions are ``ends[a:b]``.  Its ``tokens`` and
``remaining_output`` follow from its segments, and while it is in the batch
``finish`` is the length ``ends`` will have once its last token is out.  A
batch keeps the earliest ``finish`` of its tasks, so an iteration in which
no task finishes touches none of them; ``complete_iteration`` returns those
that finish.  ``form_batch`` returns the batch that ran last, the same
object, when nothing joined, left or finished.  It keeps the capped
residents in a list, rebuilt only when a parked task reaches the cap, in
place of a scan of every resident on each call, and counts its parked
residents, so that it looks for the ones that resume only when there are
some.

Batching reads queue and memory state only, never the clock; only the
mixed-pool residency that drives re-purposing is timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """One phase of one request on one machine; tasks compare by identity.

    A token task's ``segments`` are ``[a0, b0, a1, b1, ...]``: the indices of
    its machine's ``ends`` at which it entered and left the batch, with a
    last ``a`` open while it is in the batch.
    """

    request_id: int
    kind: str                  # PROMPT or TOKEN
    context: int               # prompt size, or context length when enqueued
    enqueue_time: float
    outputs: int               # outputs left when enqueued
    preempt_count: int = 0
    parked: bool = False
    segments: list[int] = field(default_factory=list)
    ends: list[float] | None = None  # its machine's iteration ends, once it runs
    finish: int = 0  # len(ends) once its last token is out, as of its last segment

    @property
    def remaining_output(self) -> int:
        segments = self.segments
        if not segments:
            return self.outputs
        return self.finish - (len(self.ends) if len(segments) % 2 else segments[-1])

    @property
    def tokens(self) -> int:
        """The prompt size, or the context length so far."""
        return self.context + self.outputs - self.remaining_output

    def join(self, ends: list[float]) -> None:
        """Enter the batch at the machine's next iteration."""
        n = len(ends)
        self.finish = n + self.remaining_output
        self.ends = ends
        self.segments.append(n)

    def leave(self) -> None:
        """Leave the batch: finished or parked."""
        self.segments.append(len(self.ends))


@dataclass
class Batch:
    prompt_tasks: list[Task]
    token_tasks: list[Task]
    iteration_time: float  # ms
    prompt_tokens: int = 0  # total prompt tokens
    prompt_ms: float = 0.0  # prompt compute, which a layer-wise transfer overlaps
    finish: int = 0  # the earliest finish of its token tasks
    _ids: tuple[tuple[int, ...], tuple[int, ...]] | None = field(default=None, repr=False)

    @property
    def kind(self):
        if self.prompt_tasks and self.token_tasks:
            return MIXED
        return "prompt_only" if self.prompt_tasks else "token_only"

    @property
    def request_ids(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The prompt and the token tasks' request ids, built once per batch."""
        if self._ids is None:
            self._ids = (tuple([t.request_id for t in self.prompt_tasks]),
                         tuple([t.request_id for t in self.token_tasks]))
        return self._ids


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
        self.due: float | None = None       # end of the iteration in flight
        self.ends: list[float] = []         # end times of its token iterations
        # the token-only batch that ran last, unless one of its tasks finished
        self._previous: Batch | None = None
        # residents preempted max_preemptions times, in resident order
        self._capped: list[Task] = []
        self._parked = 0  # residents parked, out of the batch
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
            self.pending_token_count += task.context
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
        are parked with their preempt count incremented.  When nothing
        joins, leaves or finished, it returns the batch that ran last.
        """
        if self.running is not None:
            raise InvariantError("form_batch called mid-iteration")
        resident = self.resident
        if not (self.pending_prompts or self.pending_tokens_q or resident):
            return None
        sched = self.sched
        perf = self.perf
        pool = self.current_pool
        cap = sched.max_preemptions

        prompt_batch: list[Task] = []
        prompt_tokens = 0
        pending = self.pending_prompts
        if pending and pool != TOKEN:
            slots = len(pending)  # no slot limit in the prompt pool
            if pool == MIXED:
                # non-preemptable resident tokens keep their slots ahead of prompts
                slots = perf.max_token_batch - sum(1 for t in self._capped if not t.parked)
            for task in pending:
                if len(prompt_batch) >= slots:
                    break
                # always admit the head prompt, even above the cap
                if prompt_batch and prompt_tokens + task.context > sched.prompt_token_cap:
                    break
                if not self._memory_fits(prompt_tokens + task.context):
                    break
                prompt_batch.append(task)
                prompt_tokens += task.context
            # note: pending_token_count keeps counting admitted prompts until
            # they finish, so JSQ sees in-flight prompt work
            del pending[:len(prompt_batch)]
            for task in prompt_batch:
                self._queued_ids.discard((task.request_id, PROMPT))

        token_batch: list[Task] = []
        if pool != PROMPT:
            slots = perf.max_token_batch - len(prompt_batch)
            # queued tasks come after every resident (FCFS) and have never
            # run, so none is capped
            queue = self.pending_tokens_q
            admitted = 0
            for task in queue:
                if len(resident) + admitted >= slots:
                    break
                need = task.context + task.outputs
                if not self._memory_fits(prompt_tokens + need):
                    break  # FCFS: do not skip ahead of a blocked task
                self._resident_projected += need
                self._resident_context += task.context
                admitted += 1
            # a token-only batch holds every resident (admission keeps them
            # within the token slots), so with no task finished and none
            # joining, this path would form it again
            if self._previous is not None and not (prompt_batch or admitted):
                return self._previous
            ranked = resident
            if self._capped:  # capped residents first, then the rest FCFS
                ranked = self._capped + [t for t in resident if t.preempt_count < cap]
            token_batch = ranked[:slots]
            # resident tokens that lost their slot get parked
            capping = False
            for task in ranked[slots:]:
                if not task.parked:
                    task.parked = True
                    task.leave()
                    task.preempt_count += 1
                    capping |= task.preempt_count == cap
                    self._parked += 1
            if capping:
                self._capped = [t for t in resident if t.preempt_count >= cap]
            ends = self.ends
            if self._parked:
                for task in token_batch:
                    if task.parked:  # it resumes
                        task.parked = False
                        task.join(ends)
                        self._parked -= 1
            for task in queue[:admitted]:
                self._queued_ids.discard((task.request_id, TOKEN))
                task.join(ends)
                resident.append(task)
                token_batch.append(task)
            del queue[:admitted]

        if not prompt_batch and not token_batch:
            return None
        prompt_ms = perf.prompt_time(prompt_tokens) if prompt_batch else 0.0
        token_ms = perf.token_iter_time(len(token_batch)) if token_batch else 0.0
        if prompt_batch and token_batch and sched.mixing_rule == "max":
            iteration_ms = max(prompt_ms, token_ms)
        else:
            iteration_ms = prompt_ms + token_ms
        finish = min([t.finish for t in token_batch]) if token_batch else 0
        return Batch(prompt_batch, token_batch, iteration_ms, prompt_tokens, prompt_ms, finish)

    # -- iteration completion ---------------------------------------------

    def complete_iteration(self) -> list[Task]:
        """Apply the running batch's finished iteration, which ended at
        ``due``, to the machine, and return the token tasks it finished, in
        batch order.

        Each prompt task has emitted its first token; each token task has
        emitted one more at the end appended to ``ends``, and one with no
        ``remaining_output`` is finished and releases its memory.
        """
        batch = self.running
        if batch is None:
            raise InvariantError("completing an iteration with no batch running")
        # prompt KV leaves this machine (transferred or handed to the local
        # token task, which is charged separately on admission)
        for task in batch.prompt_tasks:
            self.pending_token_count -= task.context
        tasks = batch.token_tasks
        previous = None
        finished = []
        if tasks:
            ends = self.ends
            ends.append(self.due)
            self._resident_context += len(tasks)
            n = len(ends)
            if n == batch.finish:
                cap = self.sched.max_preemptions
                finished = [t for t in tasks if t.finish == n]
                for task in finished:
                    task.leave()
                    self.resident.remove(task)
                    final = task.context + task.outputs
                    self._resident_context -= final
                    self._resident_projected -= final
                    self.pending_token_count -= 1
                    if task.preempt_count >= cap:
                        self._capped.remove(task)
            elif not batch.prompt_tasks:
                previous = batch
        self._previous = previous
        self.running = None
        self.due = None
        return finished

    def unchanged_repeats(self) -> int:
        """How many more iterations the running batch repeats unchanged: a
        token-only batch of every resident, with nothing queued to join it,
        repeats until its first task finishes."""
        batch = self.running
        if batch.prompt_tasks or self.pending_prompts or self.pending_tokens_q \
                or len(batch.token_tasks) != len(self.resident):
            return 0
        return batch.finish - len(self.ends) - 1

    def repeat_iterations(self, times: list[float]) -> None:
        """Apply the iterations of the running token-only batch that ended
        at ``times``; no task finishes in them, and the batch keeps running."""
        self.ends.extend(times)
        self._resident_context += len(times) * len(self.running.token_tasks)

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
