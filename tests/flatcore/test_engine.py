"""``flat_for``: the memoized arena every analysis stage runs on."""

import warnings

import pytest

from repro.errors import FlatCoreError
from repro.flatcore import engine, flat_for, lower
from repro.netlist import Circuit


@pytest.fixture
def tiny():
    c = Circuit("tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g", "AND", ["a", "b"])
    c.add_output("g")
    return c


class TestFlatFor:
    def test_lowers_and_memoizes(self, tiny):
        flat = flat_for(tiny)
        assert flat.n_gates == 1
        assert flat_for(tiny) is flat  # memoized on the circuit

    def test_mutation_invalidates_the_memo(self, tiny):
        first = flat_for(tiny)
        tiny.add_gate("h", "NOT", ["g"])
        second = flat_for(tiny)
        assert second is not first
        assert second.n_gates == first.n_gates + 1

    def test_lowering_failure_raises_and_is_retried(self, tiny,
                                                    monkeypatch):
        calls = []

        def broken(circuit):
            calls.append(circuit.name)
            raise FlatCoreError("synthetic lowering failure")

        monkeypatch.setattr(engine, "lower", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning
            for _ in range(2):
                with pytest.raises(FlatCoreError, match="synthetic"):
                    flat_for(tiny)
        assert calls == ["tiny", "tiny"]  # no failure memo
        monkeypatch.setattr(engine, "lower", lower)
        assert flat_for(tiny).n_gates == 1
