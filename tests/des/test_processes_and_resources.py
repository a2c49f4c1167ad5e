"""Tests for generator processes and interrupts."""

from __future__ import annotations

import pytest

from repro.des import Interruption


class TestProcesses:
    def test_sequential_timeouts(self, env):
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)
            return "done"

        process = env.process(proc(env))
        env.run()
        assert log == [1.0, 3.0]
        assert process.value == "done"

    def test_process_requires_generator(self, env):
        def not_a_generator(env):
            return 42

        with pytest.raises(TypeError):
            env.process(not_a_generator(env))

    def test_process_waits_for_process(self, env):
        def child(env):
            yield env.timeout(3.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        parent_proc = env.process(parent(env))
        env.run()
        assert parent_proc.value == (3.0, "child-result")

    def test_yielding_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        process = env.process(proc(env))
        process.defuse()
        env.run()
        assert not process.ok
        assert isinstance(process.exception, TypeError)

    def test_exception_in_process_propagates(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise ValueError("exploded")

        env.process(proc(env))
        with pytest.raises(ValueError, match="exploded"):
            env.run()

    def test_process_failure_can_be_caught_by_waiter(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught {exc}"

        process = env.process(waiter(env))
        env.run()
        assert process.value == "caught inner"

    def test_interrupt_raises_inside_process(self, env):
        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interruption as interruption:
                return ("interrupted", interruption.cause, env.now)

        def attacker(env, victim_proc):
            yield env.timeout(5.0)
            victim_proc.interrupt(cause="preempted")

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        env.run()
        assert victim_proc.value == ("interrupted", "preempted", 5.0)

    def test_interrupt_finished_process_rejected(self, env):
        def quick(env):
            yield env.timeout(1.0)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_is_alive_lifecycle(self, env):
        def proc(env):
            yield env.timeout(1.0)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_yield_already_processed_event_resumes(self, env):
        shared = env.timeout(1.0)

        def late_waiter(env):
            yield env.timeout(5.0)
            value = yield shared  # already processed by now
            return env.now

        process = env.process(late_waiter(env))
        env.run()
        assert process.value == pytest.approx(5.0)
