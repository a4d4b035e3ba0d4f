import pytest

from splitsim import (
    InvariantError,
    Machine,
    SchedulerConfig,
    Task,
    ValidationError,
    get_calibration,
)
from splitsim.machine import MIXED, PROMPT, TOKEN


def make_machine(home=PROMPT, sched=None, machine_type="H100"):
    return Machine(0, get_calibration("llama2-70b", machine_type),
                   home_role=home, sched=sched or SchedulerConfig())


def prompt_task(rid, tokens, out=4, t=0.0):
    return Task(rid, PROMPT, tokens, t, out)


def token_task(rid, tokens, out=4, t=0.0):
    return Task(rid, TOKEN, tokens, t, out - 1)


class TestQueueing:
    def test_pending_tokens_counting(self):
        # one queued 1500-token prompt plus three token tasks -> 1503
        m = make_machine(home=MIXED)
        m.enqueue(prompt_task(0, 1500))
        for rid in (1, 2, 3):
            m.enqueue(token_task(rid, 100))
        assert m.pending_token_count == 1503

    def test_empty_machine(self):
        assert make_machine().pending_token_count == 0

    def test_duplicate_task_rejected(self):
        m = make_machine()
        m.enqueue(prompt_task(7, 10))
        with pytest.raises(InvariantError):
            m.enqueue(prompt_task(7, 10))

    def test_running_prompt_still_counts(self):
        # in-flight prompt work stays visible to the cluster router until
        # the prompt finishes
        m = make_machine()
        m.enqueue(prompt_task(0, 1500))
        batch = m.form_batch()
        m.running = batch
        assert m.pending_token_count == 1500
        m.complete_iteration()
        assert m.pending_token_count == 0


class TestPromptBatching:
    def test_cap_excludes_second_prompt(self):
        m = make_machine()
        m.enqueue(prompt_task(0, 1500))
        m.enqueue(prompt_task(1, 1000))
        batch = m.form_batch()
        assert [t.request_id for t in batch.prompt_tasks] == [0]

    def test_fills_up_to_cap(self):
        m = make_machine()
        for rid in range(4):
            m.enqueue(prompt_task(rid, 512))
        batch = m.form_batch()
        assert [t.request_id for t in batch.prompt_tasks] == [0, 1, 2, 3]

    def test_oversized_head_admitted_alone(self):
        m = make_machine()
        m.enqueue(prompt_task(0, 5000))
        m.enqueue(prompt_task(1, 10))
        batch = m.form_batch()
        assert [t.request_id for t in batch.prompt_tasks] == [0]

    def test_fcfs_order(self):
        m = make_machine()
        m.enqueue(prompt_task(0, 1000))
        m.enqueue(prompt_task(1, 900))
        m.enqueue(prompt_task(2, 500))  # would overflow the cap
        batch = m.form_batch()
        assert [t.request_id for t in batch.prompt_tasks] == [0, 1]

    def test_iteration_time_is_prompt_time(self):
        m = make_machine()
        m.enqueue(prompt_task(0, 1000))
        m.enqueue(prompt_task(1, 500))
        batch = m.form_batch()
        assert batch.iteration_time == m.perf.prompt_time(1500)

    def test_token_home_machine_rejects_prompts(self):
        m = make_machine(home=TOKEN)
        m.enqueue(prompt_task(0, 100))
        # machine still in token pool: no prompt may run until the pool
        # transition (handled by the cluster layer) marks it mixed
        assert m.form_batch() is None
        m.note_pool_change(MIXED, 0.0)
        assert m.form_batch() is not None


class TestTokenBatching:
    def test_batch_size_limit(self):
        m = make_machine(home=TOKEN)
        for rid in range(70):
            m.enqueue(token_task(rid, 100))
        batch = m.form_batch()
        assert len(batch.token_tasks) == 64
        assert len(m.pending_tokens_q) == 6

    def test_iteration_grows_context(self):
        m = make_machine(home=TOKEN)
        m.enqueue(token_task(0, 100, out=3))
        batch = m.form_batch()
        m.running = batch
        assert m.complete_iteration() == []
        assert batch.token_tasks[0].tokens == 101
        assert batch.token_tasks[0].remaining_output == 1
        assert m.resident == batch.token_tasks

    def test_finish_releases_memory(self):
        m = make_machine(home=TOKEN)
        m.enqueue(token_task(0, 100, out=2))
        before = m.memory_used()
        batch = m.form_batch()
        m.running = batch
        assert m.complete_iteration() == batch.token_tasks
        assert batch.token_tasks[0].remaining_output == 0
        assert m.resident == [] and m.pending_token_count == 0
        assert m.memory_used() == pytest.approx(m.perf.weight_memory)
        assert before == pytest.approx(m.perf.weight_memory)

    def test_memory_admission_blocks(self):
        m = make_machine(home=TOKEN)
        # each task reserves its final context; capacity fits 64 tasks of
        # 2048 + overhead, so giant contexts must be throttled
        for rid in range(40):
            m.enqueue(token_task(rid, 8000, out=100))
        batch = m.form_batch()
        kv = m.perf.kv_bytes_per_token
        reserved = sum(t.tokens + t.remaining_output for t in batch.token_tasks)
        assert m.perf.weight_memory + reserved * kv <= m.perf.memory_capacity
        assert len(batch.token_tasks) < 40

    def test_memory_blocked_head_blocks_tail(self):
        # FCFS: a memory-blocked token task must not be skipped
        m = make_machine(home=TOKEN)
        cap = m.perf.memory_capacity
        weights = m.perf.weight_memory
        kv = m.perf.kv_bytes_per_token
        big = int((cap - weights) / kv * 0.9)
        m.enqueue(token_task(0, big, out=10))
        m.enqueue(token_task(1, big, out=10))   # does not fit
        m.enqueue(token_task(2, 10, out=10))    # would fit, must wait
        batch = m.form_batch()
        assert [t.request_id for t in batch.token_tasks] == [0]


class TestMixedBatching:
    def test_prompts_preempt_tokens_for_slots(self):
        sched = SchedulerConfig()
        m = make_machine(home=MIXED, sched=sched)
        for rid in range(m.perf.max_token_batch):
            m.enqueue(token_task(rid, 100, out=50))
        b1 = m.form_batch()
        m.running = b1
        m.complete_iteration()
        m.enqueue(prompt_task(999, 500))
        b2 = m.form_batch()
        assert any(t.request_id == 999 for t in b2.prompt_tasks)
        assert len(b2.prompt_tasks) + len(b2.token_tasks) <= m.perf.max_token_batch
        parked = [t for t in m.resident if t.parked]
        assert len(parked) == 1
        assert parked[0].preempt_count == 1

    def test_preempted_task_keeps_memory(self):
        m = make_machine(home=MIXED)
        for rid in range(m.perf.max_token_batch):
            m.enqueue(token_task(rid, 100, out=50))
        b1 = m.form_batch()
        m.running = b1
        used_before = m.memory_used()
        m.complete_iteration()
        m.enqueue(prompt_task(999, 500))
        m.form_batch()
        # +64 generated tokens, parked task still resident
        assert m.memory_used() >= used_before

    def test_max_preemptions_makes_nonpreemptable(self):
        sched = SchedulerConfig(max_preemptions=1)
        m = make_machine(home=MIXED, sched=sched)

        def run(prompts):
            for rid in prompts:
                m.enqueue(prompt_task(rid, 30))
            b = m.form_batch()
            m.running = b
            m.complete_iteration()
            return b

        m.enqueue(token_task(0, 100, out=1000))
        run([])
        # a batch of prompts takes every slot: the task is parked and
        # reaches the cap, then resumes
        assert run(range(100, 164)).token_tasks == []
        assert m.resident[0].preempt_count == sched.max_preemptions
        run([])
        # a flood of prompts cannot take the reserved slot
        for rid in range(1, 70):
            m.enqueue(prompt_task(rid, 30))
        b2 = m.form_batch()
        assert any(tt.request_id == 0 for tt in b2.token_tasks)

    def test_resumed_and_admitted_tasks_join_one_batch(self):
        m = make_machine(home=MIXED)
        slots = m.perf.max_token_batch
        m.enqueue(token_task(0, 100, out=3))  # finishes at its second iteration
        for rid in range(1, slots):
            m.enqueue(token_task(rid, 100, out=50))

        def run():
            batch = m.form_batch()
            m.running = batch
            return batch, [t.request_id for t in m.complete_iteration()]

        first, finished = run()
        assert [t.request_id for t in first.token_tasks] == list(range(slots))
        assert finished == []
        # the prompt takes the newest task's slot, and task 0 finishes
        m.enqueue(prompt_task(999, 500))
        second, finished = run()
        assert [t.request_id for t in m.resident if t.parked] == [slots - 1]
        assert [t.request_id for t in second.token_tasks] == list(range(slots - 1))
        assert finished == [0]
        # in one form_batch, the parked task resumes and a queued one is admitted
        m.enqueue(token_task(100, 100, out=50, t=1.0))
        third, finished = run()
        assert [t.request_id for t in third.token_tasks[-2:]] == [slots - 1, 100]
        assert finished == []

    def test_mixing_rule_sum_vs_max(self):
        for rule, combine in (("sum", lambda p, t: p + t), ("max", max)):
            m = make_machine(home=MIXED,
                             sched=SchedulerConfig(mixing_rule=rule))
            m.enqueue(token_task(0, 100))
            b1 = m.form_batch()
            m.running = b1
            m.complete_iteration()
            m.enqueue(prompt_task(1, 500))
            b2 = m.form_batch()
            assert b2.kind == "mixed"
            expected = combine(m.perf.prompt_time(500), m.perf.token_iter_time(1))
            assert b2.iteration_time == pytest.approx(expected)

    def test_token_order_capped_first_then_fcfs(self):
        def run(m):
            batch = m.form_batch()
            m.running = batch
            m.complete_iteration()
            return [t.request_id for t in batch.token_tasks]

        # capped residents go first, whatever their enqueue time
        m = make_machine(home=MIXED,
                         sched=SchedulerConfig(max_preemptions=1))
        for rid in range(3):
            m.enqueue(token_task(rid, 100, out=50, t=float(rid)))
        assert run(m) == [0, 1, 2]
        # prompts take all but two token slots: the newest resident is
        # parked and reaches the cap
        for rid in range(100, 162):
            m.enqueue(prompt_task(rid, 30))
        assert run(m) == [0, 1]
        assert run(m) == [2, 0, 1]

        # FCFS stops at a memory-blocked queued task: a later queued task
        # does not run ahead of it
        m = make_machine(home=TOKEN)
        free = int((m.perf.memory_capacity - m.perf.weight_memory) / m.perf.kv_bytes_per_token)
        m.enqueue(token_task(0, 100, out=50, t=0.0))
        m.enqueue(token_task(1, 100, out=50, t=1.0))
        assert run(m) == [0, 1]
        m.enqueue(token_task(2, free, out=10, t=3.0))  # does not fit
        m.enqueue(token_task(3, 10, out=10, t=4.0))    # would fit, must wait
        assert run(m) == [0, 1]
        assert [t.request_id for t in m.pending_tokens_q] == [2, 3]


class TestInvariants:
    def test_form_batch_mid_iteration_rejected(self):
        m = make_machine()
        m.enqueue(prompt_task(0, 10))
        m.running = m.form_batch()
        m.enqueue(prompt_task(1, 10))
        with pytest.raises(InvariantError):
            m.form_batch()

    def test_complete_foreign_batch_rejected(self):
        # a formed batch that was never started is not the running one
        m = make_machine()
        m.enqueue(prompt_task(0, 10))
        m.form_batch()
        with pytest.raises(InvariantError):
            m.complete_iteration()

    def test_out_of_order_token_enqueue_rejected(self):
        # token queues are FCFS by arrival: a token task older than one the
        # machine holds, queued or resident, is a defect of the caller
        m = make_machine(home=TOKEN)
        m.enqueue(token_task(0, 100, out=50, t=5.0))
        with pytest.raises(InvariantError):
            m.enqueue(token_task(1, 100, out=50, t=0.0))
        m.enqueue(token_task(1, 100, out=50, t=5.0))  # a tie is in order
        m.running = m.form_batch()
        m.complete_iteration()
        assert m.pending_tokens_q == []
        with pytest.raises(InvariantError):
            m.enqueue(token_task(2, 100, out=50, t=4.0))
        m.enqueue(token_task(2, 100, out=50, t=6.0))
        assert [t.request_id for t in m.resident + m.pending_tokens_q] == [0, 1, 2]

    def test_scheduler_config_validation(self):
        with pytest.raises(ValidationError):
            SchedulerConfig(prompt_token_cap=0)
        with pytest.raises(ValidationError):
            SchedulerConfig(mixing_rule="average")

    def test_mixed_residency_accounting(self):
        m = make_machine(home=PROMPT)
        m.note_pool_change(MIXED, 10.0)
        m.note_pool_change(PROMPT, 25.0)
        assert m.mixed_residency(30.0) == pytest.approx(15.0)
        m.reset_mixed_residency(30.0)
        assert m.mixed_residency(40.0) == 0.0
