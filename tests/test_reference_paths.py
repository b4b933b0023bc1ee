"""The one-pass validator, the derived fillings and the involution against
the slow reference paths of `_reference.py`."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as reference
from crossnest import involution
from crossnest.involution import involute
from crossnest.oracle import EnumSpec, enumerate_objects
from crossnest.tableaux import (
    TableauKind,
    TableauSequence,
    decode,
    encode_hesitating,
    encode_semioscillating,
    encode_vacillating,
    transpose_sequence,
    validate_sequence,
)

ENCODERS = {
    TableauKind.SEMI_OSCILLATING: encode_semioscillating,
    TableauKind.VACILLATING: encode_vacillating,
    TableauKind.HESITATING: encode_hesitating,
}


@st.composite
def diagrams(draw):
    """A flavour and a random diagram of up to 8 vertices that it accepts,
    as (kind, arcs, n): loops only for hesitating walks, vertex-disjoint
    arcs for semi-oscillating ones."""
    kind = draw(st.sampled_from(sorted(ENCODERS, key=lambda k: k.value)))
    n = draw(st.integers(0, 8))
    loops = kind is TableauKind.HESITATING
    matching = kind is TableauKind.SEMI_OSCILLATING
    ends: set = set()
    arcs = []
    for a in range(1, n + 1):
        if matching and a in ends:
            continue
        free = [b for b in range(a if loops else a + 1, n + 1) if b not in ends]
        if free and draw(st.booleans()):
            b = draw(st.sampled_from(free))
            ends.add(b)
            arcs.append((a, b))
    return kind, arcs, n


def _encoded(case):
    kind, arcs, n = case
    return ENCODERS[kind](arcs, n)


diagram_walks = diagrams().map(_encoded)


def _addable(shape):
    """The partitions one box larger than `shape`."""
    return [
        shape[:r] + (shape[r] + 1,) + shape[r + 1 :]
        for r in range(len(shape))
        if r == 0 or shape[r - 1] > shape[r]
    ] + [shape + (1,)]


def _removable(shape):
    """The partitions one box smaller than `shape`."""
    out = []
    for r in range(len(shape)):
        if r + 1 == len(shape) or shape[r] > shape[r + 1]:
            smaller = shape[:r] + (shape[r] - 1,) + shape[r + 1 :]
            out.append(smaller if smaller[-1] else smaller[:-1])
    return out


@st.composite
def lattice_walks(draw):
    """A semi-oscillating walk drawn as shapes, with no diagram behind it:
    up to 8 boxes added, up to 8 one-box steps or pauses, then emptied."""
    shape = ()
    shapes = [shape]
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(_addable(shape)))
        shapes.append(shape)
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(_addable(shape) + _removable(shape) + [shape]))
        shapes.append(shape)
    while shape:
        shape = draw(st.sampled_from(_removable(shape)))
        shapes.append(shape)
    return TableauSequence(TableauKind.SEMI_OSCILLATING, len(shapes) - 1, tuple(shapes))


walks = st.one_of(diagram_walks, lattice_walks())


def _outcome(validate, seq):
    try:
        return ("ok", validate(seq))
    except ValueError as exc:
        return ("error", str(exc))


def _with(seq, shapes):
    return TableauSequence(seq.kind, seq.n, shapes)


def _replace(shapes, i, shape):
    return shapes[:i] + (shape,) + shapes[i + 1 :]


# --- single faults: each returns the corrupted sequence and the start of the
# message both validators must raise, or None where it does not apply ------


def _zero_part(seq, data):
    i = data.draw(st.integers(0, len(seq.shapes) - 1))
    return _with(seq, _replace(seq.shapes, i, seq.shapes[i] + (0,))), "not a partition shape"


def _bad_row(seq, data):
    """A one-box step from a good shape into a non-partition, which only
    the changed row gives away."""
    options = []
    for i in range(1, len(seq.shapes)):
        s = list(seq.shapes[i - 1])
        for r in range(1, len(s)):
            if s[r] == s[r - 1]:
                options.append((i, tuple(s[:r] + [s[r] + 1] + s[r + 1 :])))
        for r in range(len(s) - 1):
            if s[r] == s[r + 1]:
                options.append((i, tuple(s[:r] + [s[r] - 1] + s[r + 1 :])))
    if not options:
        return None
    i, shape = data.draw(st.sampled_from(options))
    return _with(seq, _replace(seq.shapes, i, shape)), "not a partition shape"


def _two_box_jump(seq, data):
    """Two boxes in one row, one in each of two rows, or one in a new row
    and one in the first."""
    options = []
    for i in range(1, len(seq.shapes) - 1):
        s = seq.shapes[i - 1]
        options.append((i, (s[0] + 2,) + s[1:] if s else (2,)))
        options.append((i, (s[0] + 1,) + s[1:] + (1,) if s else (1, 1)))
        if len(s) > 1:
            options.append((i, (s[0] + 1, s[1] + 1) + s[2:]))
    if not options:
        return None
    i, jump = data.draw(st.sampled_from(options))
    return (
        _with(seq, _replace(seq.shapes, i, jump)),
        "consecutive shapes differ by more than one box",
    )


def _wrong_parity(seq, data):
    """Move a vertex's only change to its other half-step."""
    if seq.kind is TableauKind.SEMI_OSCILLATING:
        return None
    options = []
    for v in range(1, seq.n + 1):
        a, b, c = seq.shapes[2 * v - 2 : 2 * v + 1]
        if a != b == c:
            options.append((2 * v - 1, a))
        elif a == b != c:
            options.append((2 * v - 1, c))
    if not options:
        return None
    i, shape = data.draw(st.sampled_from(options))
    return _with(seq, _replace(seq.shapes, i, shape)), "%s shapes may not" % seq.kind.value


def _nonempty_end(seq, data):
    i = data.draw(st.sampled_from([0, len(seq.shapes) - 1]))
    return _with(seq, _replace(seq.shapes, i, (1,))), "sequences must start and end empty"


FAULTS = {
    "zero part": _zero_part,
    "bad row": _bad_row,
    "two-box jump": _two_box_jump,
    "wrong parity": _wrong_parity,
    "nonempty end": _nonempty_end,
}


@given(walks)
@settings(max_examples=300)
def test_validators_agree_on_valid_walks(seq):
    for walk in (seq, transpose_sequence(seq)):
        steps = reference.validate_sequence(walk)
        assert validate_sequence(walk) == steps
        assert decode(walk) == reference.decode(walk)


@given(walks, st.sampled_from(sorted(FAULTS)), st.data())
@settings(max_examples=500)
def test_validators_agree_on_single_faults(seq, fault, data):
    corrupted = FAULTS[fault](seq, data)
    if corrupted is None:
        corrupted = _zero_part(seq, data)
    bad, message = corrupted
    expected = _outcome(reference.validate_sequence, bad)
    assert expected[0] == "error" and expected[1].startswith(message), expected
    assert _outcome(validate_sequence, bad) == expected
    with pytest.raises(ValueError) as raised:
        decode(bad)
    assert str(raised.value) == expected[1]


@given(
    walks,
    st.data(),
    st.lists(st.integers(-1, 4), max_size=4).map(tuple),
)
@settings(max_examples=300)
def test_validators_agree_on_any_replaced_shape(seq, data, shape):
    i = data.draw(st.integers(0, len(seq.shapes) - 1))
    bad = _with(seq, _replace(seq.shapes, i, shape))
    assert _outcome(validate_sequence, bad) == _outcome(reference.validate_sequence, bad)


# --- fillings derived from the shapes against the recording walk -----------


@given(diagrams())
@settings(max_examples=300)
def test_derived_fillings_match_the_recording_walk(case):
    kind, arcs, n = case
    seq = ENCODERS[kind](arcs, n)
    assert seq.fillings == reference.record_fillings(kind, arcs, n)
    assert [tuple(map(len, rows)) for rows in seq.fillings] == list(seq.shapes)


@given(diagrams())
@settings(max_examples=300)
def test_transposed_fillings_are_the_image_walk(case):
    kind, arcs, n = case
    image = transpose_sequence(ENCODERS[kind](arcs, n))
    image_arcs = decode(image)
    assert image.fillings == reference.record_fillings(kind, image_arcs, n)
    assert image.to_json_dict() == ENCODERS[kind](image_arcs, n).to_json_dict()


# --- the involution against the reference chain, exhaustively ---------------

SPECS = [EnumSpec("permutation", n, colours=2) for n in range(6)] + [
    EnumSpec("setpartition", n, colours=2) for n in range(7)
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "%s-%d" % (s.family, s.n))
def test_involution_matches_the_reference_chain(monkeypatch, spec):
    """Every two-coloured permutation of size at most 5 and set partition
    of size at most 6, against the slice map of the reference chain."""
    objects = list(enumerate_objects(spec))
    with monkeypatch.context() as patched:
        patched.setattr(involution, "involute_slice", reference.involute_slice)
        expected = [involute(obj) for obj in objects]
    assert [involute(obj) for obj in objects] == expected
