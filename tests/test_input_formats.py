"""Round-trip and fuzz tests for the four input formats: oracle bytes, gate
text, schedule text and ensemble config. Any input, arbitrary or a mutation of
a valid one, either parses or raises the package's ``InvalidParameterError``
(``ScheduleError`` refines it), never another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblab import prslab as pl
from scramblab import rewrite as rw
from scramblab import toyperm as tp
from scramblab.errors import InvalidParameterError, ScheduleError

FUZZ = settings(max_examples=200, deadline=None)


def _parses_or_rejects(parse, data):
    try:
        return parse(data)
    except InvalidParameterError:
        return None


@st.composite
def mutated(draw, valid, alphabet):
    """A valid input with a few deletions, insertions or replacements."""
    out = draw(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        piece = draw(alphabet)
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "delete":
            out = out[:i] + out[i + 1:]
        elif op == "insert":
            out = out[:i] + piece + out[i:]
        else:
            out = out[:i] + piece + out[i + 1:]
    return out


TEXT_PIECES = st.one_of(st.sampled_from(list("#=:,. -_\n0123456789eEXYZIHSTq")),
                        st.sampled_from(["nan", "inf", "# qubits ", "²", "١", "RZ", "CNOT"]),
                        st.text(max_size=2))

# ---------------------------------------------------------------------------
# Oracle bytes
# ---------------------------------------------------------------------------

oracle_blobs = st.builds(lambda n, perm: tp.oracle_to_bytes(tp.PermutationOracle(n, perm)),
                         st.just(3), st.permutations(range(8))) | st.builds(
    lambda n, seed: tp.oracle_to_bytes(tp.random_permutation(n, seed)),
    st.integers(1, 9), st.integers(0, 2**32 - 1))


class TestOracleBytes:
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 4095), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_keeps_queried_points(self, n, seed, queries):
        o = tp.random_permutation(n, seed)
        answers = {x % o.size: o.forward(x % o.size) for x in queries}
        back = tp.oracle_from_bytes(tp.oracle_to_bytes(o))
        assert np.array_equal(back.forward_table, o.forward_table)
        assert all(back.forward(x) == y for x, y in answers.items())
        assert tp.oracle_to_bytes(back) == tp.oracle_to_bytes(o)

    @given(st.binary(max_size=80))
    @FUZZ
    def test_arbitrary_bytes(self, blob):
        o = _parses_or_rejects(tp.oracle_from_bytes, blob)
        if o is not None:
            assert np.array_equal(np.sort(o.forward_table), np.arange(o.size))

    @given(mutated(oracle_blobs, st.binary(min_size=1, max_size=2)))
    @FUZZ
    def test_mutated_bytes(self, blob):
        o = _parses_or_rejects(tp.oracle_from_bytes, blob)
        if o is not None:
            assert tp.oracle_to_bytes(o) == blob


# ---------------------------------------------------------------------------
# Gate text
# ---------------------------------------------------------------------------

def _gate(kind, q0, q1, angle):
    if rw.GATE_ARITY[kind] == 2:
        return rw.Gate(kind, (q0, q0 + 1 + q1))
    return rw.Gate(kind, (q0,), angle if kind in rw.PARAMETRIC else None)


gates = st.builds(_gate, st.sampled_from(sorted(rw.GATE_ARITY)), st.integers(0, 4),
                  st.integers(0, 3), st.floats(allow_nan=False, allow_infinity=False, width=64))
sequences = st.builds(lambda gs, extra: rw.GateSequence(
    tuple(gs), 1 + extra + max((max(g.qubits) for g in gs), default=0)),
    st.lists(gates, max_size=8), st.integers(0, 2))


class TestGateText:
    @given(sequences)
    @FUZZ
    def test_roundtrip(self, seq):
        text = rw.sequence_to_text(seq)
        back = rw.sequence_from_text(text)
        assert back == seq
        assert rw.sequence_to_text(back) == text

    @given(st.text(max_size=60))
    @FUZZ
    def test_arbitrary_text(self, text):
        _parses_or_rejects(rw.sequence_from_text, text)

    @given(mutated(sequences.map(rw.sequence_to_text), TEXT_PIECES))
    @FUZZ
    def test_mutated_text(self, text):
        _parses_or_rejects(rw.sequence_from_text, text)

    @pytest.mark.parametrize("text", ["# qubits ²\nX 0\n", "# qubits " + "9" * 5000 + "\n"],
                             ids=["superscript-digit", "5000-digits"])
    def test_header_digits_that_int_rejects(self, text):
        with pytest.raises(InvalidParameterError):
            rw.sequence_from_text(text)


# ---------------------------------------------------------------------------
# Schedule text
# ---------------------------------------------------------------------------

finite = st.floats(min_value=0, max_value=1e6, allow_nan=False)
schedules = st.builds(
    lambda times, sites, labels, extra: pl.ShockSchedule(
        tuple(zip(times, sites, labels)), (times[-1] if times else 0.0) + extra),
    st.lists(finite, max_size=6, unique=True).map(sorted),
    st.lists(st.integers(0, 20), min_size=6, max_size=6),
    st.lists(st.sampled_from(pl.SCHEDULE_LABELS), min_size=6, max_size=6),
    finite)


class TestScheduleText:
    @given(schedules)
    @FUZZ
    def test_roundtrip(self, sched):
        text = pl.schedule_to_text(sched)
        back = pl.schedule_from_text(text)
        assert back == sched
        assert pl.schedule_to_text(back) == text

    @given(st.text(max_size=60))
    @FUZZ
    def test_arbitrary_text(self, text):
        _parses_or_rejects(pl.schedule_from_text, text)

    @given(mutated(schedules.map(pl.schedule_to_text), TEXT_PIECES))
    @FUZZ
    def test_mutated_text(self, text):
        sched = _parses_or_rejects(pl.schedule_from_text, text)
        if sched is not None:
            assert all(q >= 0 and p in tuple(pl.SCHEDULE_LABELS) for _, q, p in sched.entries)

    @pytest.mark.parametrize("entry", ["1.0:0:", "1.0:0:XY", "1.0:0:xyz", "1.0:-1:X"])
    def test_entry_needs_one_pauli_on_a_site(self, entry):
        with pytest.raises(ScheduleError):
            pl.schedule_from_text(f"T = 4\nschedule = {entry}\n")


# ---------------------------------------------------------------------------
# Ensemble config
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
maybe_float = st.none() | st.floats(allow_nan=False, allow_infinity=False, width=64)
configs = st.builds(pl.EnsembleConfig, scrambler=words, n=st.integers(-5, 50),
                    l=st.integers(-5, 50), seed=st.integers(-2**63, 2**63),
                    m=st.none() | st.integers(0, 9), beta=maybe_float, T=maybe_float,
                    g=st.floats(allow_nan=False, allow_infinity=False), h=st.floats(-3, 3),
                    t_scr=maybe_float, initial=words)


class TestEnsembleConfigText:
    @given(configs)
    @FUZZ
    def test_roundtrip(self, cfg):
        text = pl.ensemble_config_to_text(cfg)
        back = pl.ensemble_config_from_text(text)
        assert back == cfg
        assert pl.ensemble_config_to_text(back) == text

    @given(st.text(max_size=60))
    @FUZZ
    def test_arbitrary_text(self, text):
        _parses_or_rejects(pl.ensemble_config_from_text, text)

    @given(mutated(configs.map(pl.ensemble_config_to_text), TEXT_PIECES))
    @FUZZ
    def test_mutated_text(self, text):
        _parses_or_rejects(pl.ensemble_config_from_text, text)
