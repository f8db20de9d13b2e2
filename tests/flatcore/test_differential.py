"""Flat core vs the object reference core: the differential layer.

The flat CSR core is only allowed to exist because every number it
produces is *bit-identical* to the per-gate object core's (kept as a
test-only reference in ``tests/object_core.py``) -- same floats, same
interval endpoints, same dict iteration orders, and therefore the same
``result_checksum`` for every suite/matrix cell.  These tests are the
contract: every committed small-tier circuit is lowered, validated
against its source ``Circuit``, and run through all four stages
(packed simulation, backward-ODC observability, ELW construction, SER
aggregation) by production and by the reference, comparing exact
equality -- no tolerances anywhere.

Tier-1 additionally checks ``result_checksum`` parity on the two-cell
matrix subset: production (serial and two workers) against a serial
run with the reference core installed, and both against the committed
golden table.  The full 36-cell sweep runs in the CI ``flatcore`` job
under ``REPRO_FLATCORE_FULL=1``.
"""

import os

import numpy as np
import pytest

from repro.core.elw import circuit_elws
from repro.corpus import (
    build_circuit,
    load_digest_table,
    run_matrix,
    tier_specs,
)
from repro.corpus.matrix import GOLDEN_BASENAME, compare_digest_tables
from repro.flatcore import lower, validate_flat
from repro.runtime.suite import clear_obs_cache
from repro.ser.analysis import analyze_ser
from repro.sim.bitvec import random_patterns
from repro.sim.logicsim import simulate_comb
from repro.sim.odc import observability
from tests import object_core

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
GOLDEN_PATH = os.path.join(REPO_ROOT, "corpus", "small", GOLDEN_BASENAME)

full = pytest.mark.skipif(
    not os.environ.get("REPRO_FLATCORE_FULL"),
    reason="set REPRO_FLATCORE_FULL=1 for the full 36-cell sweep")

SMALL_NAMES = [spec.name for spec in tier_specs("small")]

#: Cheap-but-real analysis parameters for the per-stage comparisons
#: (equality does not get easier at the paper's 15x256; it only gets
#: slower to check 12 circuits x 2 cores).
FRAMES, PATTERNS, SEED = (3, 64, 1)
PHI = 8.0

#: The two-cell matrix slice tier-1 uses (mirrors tests/corpus).
SUBSET = dict(circuits=("cslow_a", "mesh_a"),
              scenarios=("shallow-both",))

_CIRCUITS = {}


def small_circuit(name):
    """Build (once per process) a committed small-tier circuit."""
    if name not in _CIRCUITS:
        spec = next(s for s in tier_specs("small") if s.name == name)
        _CIRCUITS[name] = build_circuit(spec)
    return _CIRCUITS[name]


def input_values(circuit, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    return {name: random_patterns(n_patterns, rng)
            for name in [*circuit.inputs, *circuit.dffs]}


@pytest.fixture(params=SMALL_NAMES)
def circuit(request):
    return small_circuit(request.param)


class TestLoweringRoundTrip:
    def test_lowering_validates_against_source(self, circuit):
        flat = lower(circuit)
        validate_flat(flat, circuit)
        assert flat.n_gates == len(circuit.gates)
        assert flat.n_dffs == len(circuit.dffs)

    def test_lowering_is_deterministic(self, circuit):
        assert lower(circuit).digest == lower(circuit).digest
        assert lower(circuit).digest != lower(
            small_circuit(SMALL_NAMES[0])).digest \
            or circuit.name == SMALL_NAMES[0]


class TestRecorderRngContract:
    """The flat recorder batches one ``rng.integers`` call per cycle.

    Bit-identity with the object recorder rests on PCG64 consuming its
    stream identically for one ``(n_inputs, words)`` request and for
    ``n_inputs`` sequential per-input draws.  Pin that equivalence --
    including the final generator state -- so a numpy behaviour change
    fails here, loudly, instead of surfacing as a cross-core digest
    mismatch.
    """

    @pytest.mark.parametrize("n_inputs,n_patterns",
                             [(1, 64), (7, 64), (100, 64), (13, 256),
                              (5, 100), (3, 1)])
    def test_batched_input_draws_match_per_input_draws(self, n_inputs,
                                                       n_patterns):
        from repro.sim.bitvec import _tail_mask, n_words

        words = n_words(n_patterns)
        seq_rng = np.random.default_rng(42)
        seq = np.stack([random_patterns(n_patterns, seq_rng)
                        for _ in range(n_inputs)])
        batch_rng = np.random.default_rng(42)
        batch = batch_rng.integers(0, 2 ** 64, size=(n_inputs, words),
                                   dtype=np.uint64)
        batch[:, -1] &= _tail_mask(n_patterns)
        assert (seq == batch).all()
        assert seq_rng.bit_generator.state == batch_rng.bit_generator.state


class TestStageEquality:
    def test_simulation_bit_equal(self, circuit):
        values = input_values(circuit, PATTERNS)
        ref = object_core.simulate_comb(circuit, values, PATTERNS)
        out = simulate_comb(circuit, values, PATTERNS)
        assert list(ref) == list(out)
        for net in ref:
            assert np.array_equal(ref[net], out[net]), net
            assert out[net].dtype == np.uint64

    def test_simulation_with_force_bit_equal(self, circuit):
        values = input_values(circuit, PATTERNS)
        rng = np.random.default_rng(7)
        forced = {circuit.inputs[0]: random_patterns(PATTERNS, rng),
                  next(iter(circuit.gates)): random_patterns(PATTERNS,
                                                             rng)}
        ref = object_core.simulate_comb(circuit, values, PATTERNS,
                                        force=forced)
        out = simulate_comb(circuit, values, PATTERNS, force=forced)
        assert list(ref) == list(out)
        for net in ref:
            assert np.array_equal(ref[net], out[net]), net

    def test_observability_bit_equal(self, circuit):
        ref = object_core.observability(circuit, n_frames=FRAMES,
                                        n_patterns=PATTERNS, seed=SEED,
                                        keep_masks=True)
        out = observability(circuit, n_frames=FRAMES, n_patterns=PATTERNS,
                            seed=SEED, keep_masks=True)
        # dict *order* matters: it feeds digests downstream
        assert list(ref.obs) == list(out.obs)
        for net in ref.obs:
            assert ref.obs[net] == out.obs[net], net
        assert list(ref.masks) == list(out.masks)
        for net in ref.masks:
            assert np.array_equal(ref.masks[net], out.masks[net]), net

    def test_elws_bit_equal(self, circuit):
        setup = circuit.library.setup_time
        hold = circuit.library.hold_time
        ref = object_core.circuit_elws(circuit, PHI, setup, hold)
        out = circuit_elws(circuit, PHI, setup, hold)
        assert list(ref) == list(out)
        for net in ref:
            assert ref[net].intervals == out[net].intervals, net

    @staticmethod
    def assert_ser_equal(circuit, **kwargs):
        def run(analyze):
            return analyze(circuit, PHI, n_frames=FRAMES,
                           n_patterns=PATTERNS, seed=SEED, **kwargs)

        ref = run(object_core.analyze_ser)
        out = run(analyze_ser)
        assert ref.total == out.total
        assert ref.comb == out.comb
        assert ref.reg == out.reg
        assert ref.total_no_timing == out.total_no_timing
        assert list(ref.per_element) == list(out.per_element)
        assert ref.per_element == out.per_element

    @pytest.mark.parametrize("model", ["library", "uniform", "area"])
    def test_ser_bit_equal(self, circuit, model):
        self.assert_ser_equal(circuit, rate_model=model)

    @pytest.mark.parametrize("model", ["library", "uniform", "area"])
    def test_derated_ser_bit_equal(self, circuit, model):
        self.assert_ser_equal(circuit, rate_model=model,
                              electrical_tau=2.0)


def golden_subset(cells):
    """The committed golden digest table, restricted to ``cells``."""
    golden = dict(load_digest_table(GOLDEN_PATH))
    golden["cells"] = {key: value for key, value in golden["cells"].items()
                       if key in cells}
    assert len(golden["cells"]) == len(cells)
    return golden


class TestChecksumParity:
    """``result_checksum`` is a pure function of the experiment --
    the reference core computes the very digests production does."""

    @pytest.fixture(scope="class")
    def object_cells(self):
        clear_obs_cache()
        with pytest.MonkeyPatch.context() as patch:
            object_core.install(patch)
            result = run_matrix("small", **SUBSET)
        clear_obs_cache()
        assert compare_digest_tables(
            result.digest_table(), golden_subset(result.cells)) == []
        return result.cells

    def test_flat_serial_matches_object(self, object_cells):
        clear_obs_cache()
        flat = run_matrix("small", **SUBSET)
        assert flat.cells == object_cells

    def test_flat_two_workers_match_object_serial(self, object_cells):
        clear_obs_cache()
        flat = run_matrix("small", workers=2, **SUBSET)
        assert flat.cells == object_cells


@full
class TestFullTierParity:
    """All 36 matrix cells against the committed golden."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_digest_table(GOLDEN_PATH)

    @pytest.mark.parametrize("kwargs", [dict(), dict(workers=2)],
                             ids=["serial", "workers2"])
    def test_full_matrix_matches_golden(self, golden, kwargs):
        clear_obs_cache()
        result = run_matrix("small", **kwargs)
        assert len(result.cells) == 36
        assert compare_digest_tables(result.digest_table(), golden) == []

    def test_reference_core_matches_golden(self, golden, monkeypatch):
        object_core.install(monkeypatch)
        clear_obs_cache()
        result = run_matrix("small")
        clear_obs_cache()
        assert compare_digest_tables(result.digest_table(), golden) == []

    def test_full_matrix_cold_then_warm(self, golden, tmp_path):
        cache_dir = str(tmp_path / "cache")
        clear_obs_cache()
        cold = run_matrix("small", cache=True, cache_dir=cache_dir)
        assert compare_digest_tables(cold.digest_table(), golden) == []
        assert os.listdir(cache_dir)  # the disk tier was really filled
        clear_obs_cache()
        warm = run_matrix("small", cache=True, cache_dir=cache_dir)
        assert compare_digest_tables(warm.digest_table(), golden) == []
