"""The value types are immutable NamedTuples; the checking ones also check
when unpickled (the --jobs pool pickles the recurrence params)."""

import pickle

import pytest

from fibfield.fibseq import FIBONACCI, RecurrenceParams, SequenceId
from fibfield.modarith import factorize
from fibfield.quadext import QuadContext

VALUES = [
    RecurrenceParams(3, 1),
    SequenceId(7, 9, -1, FIBONACCI),
    QuadContext(7, 1, -1),
    factorize(360),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_read_only(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 1)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_sequence_id_reduces_seed():
    seq = SequenceId(7, 9, -1, FIBONACCI)
    assert (seq.a1, seq.a2) == (2, 6)
    with pytest.raises(ValueError, match="modulus N = 0 must be at least 1"):
        SequenceId(0, 1, 1, FIBONACCI)


def test_quad_context_rejects_odd_composite():
    with pytest.raises(ValueError, match="p = 9 must be an odd prime"):
        QuadContext(9, 1, -1)


def test_repr_names_fields():
    # error messages such as ContextMismatch embed these reprs
    assert repr(RecurrenceParams(1, -1)) == "RecurrenceParams(P=1, Q=-1)"
    assert repr(QuadContext(7, 1, -1)) == "QuadContext(p=7, P=1, Q=6)"
