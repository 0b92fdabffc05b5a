"""Property tests for the parsers that read untrusted files.

Any input must either parse into a well-formed value or raise DataError;
no other exception may escape, because the CLI maps only DataError to
exit code 2.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from braidseg.data import (CLASSES, DOMAINS, SPLITS, DataError, Sample,  # noqa: E402
                           load_manifest, read_json, read_pgm)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_WS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  ", b"\n# note\n"])
_NUMBER = st.integers(-3, 8).map(lambda v: str(v).encode())
_TOKEN = st.one_of(_NUMBER, st.sampled_from([b"255", b"0", b"256", b"+3", b"1_0", b"x", b"-0"]),
                   st.binary(min_size=1, max_size=4).filter(
                       lambda b: not any(bytes([c]).isspace() or c == ord("#") for c in b)))


@st.composite
def pgm_files(draw):
    """(file bytes, width token, height token): a header of four tokens,
    mostly plausible ones, plus a payload."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P6", b"P"]))
    w, h, maxval = draw(_TOKEN), draw(_TOKEN), draw(st.one_of(st.just(b"255"), _TOKEN))
    seps = [draw(_WS) for _ in range(4)]
    header = magic + seps[0] + w + seps[1] + h + seps[2] + maxval + seps[3]
    return header + draw(st.binary(max_size=72)), w, h


def _parse(path, raw):
    """read_pgm's result, or None when it raised DataError."""
    path.write_bytes(raw)
    try:
        arr = read_pgm(path)
    except DataError:
        return None
    assert isinstance(arr, np.ndarray) and arr.dtype == np.uint8 and arr.ndim == 2
    assert min(arr.shape) >= 1 and arr.size <= len(raw)
    return arr


@FUZZ
@given(case=pgm_files())
def test_read_pgm_parses_or_raises_data_error(tmp_path, case):
    raw, w, h = case
    arr = _parse(tmp_path / "f.pgm", raw)
    if arr is not None:
        assert arr.shape == (int(h), int(w))


@FUZZ
@given(raw=st.binary(max_size=48))
def test_read_pgm_on_arbitrary_bytes(tmp_path, raw):
    _parse(tmp_path / "g.pgm", raw)


def test_parse_helper_accepts_a_valid_file(tmp_path):
    # the properties above check only what parses; this input must
    arr = _parse(tmp_path / "h.pgm", b"P5\n# note\n3 2\n255\n" + bytes(6))
    assert arr.shape == (2, 3)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_FIELD_VALUES = {
    "id": st.text(max_size=8), "image": st.text(max_size=8), "mask": st.text(max_size=8),
    "class": st.sampled_from(CLASSES), "domain": st.sampled_from(DOMAINS),
    "split": st.sampled_from(SPLITS),
}


@st.composite
def manifest_records(draw):
    """A record that is valid except where the draw breaks it: each field is
    kept, dropped, or replaced by an arbitrary JSON value."""
    rec = {}
    for key, good in _FIELD_VALUES.items():
        choice = draw(st.sampled_from(["good", "good", "drop", "any"]))
        if choice == "good":
            rec[key] = draw(good)
        elif choice == "any":
            rec[key] = draw(_JSON)
    rec.update(draw(st.dictionaries(st.text(max_size=4), _JSON, max_size=2)))
    return json.dumps(rec)


def _assert_well_formed(s):
    assert all(isinstance(v, str) for v in (s.id, s.image, s.mask))
    assert s.cls in CLASSES and s.domain in DOMAINS and s.split in SPLITS


def _check_record(line):
    try:
        s = Sample.from_json(line)
    except DataError:
        return
    _assert_well_formed(s)


@FUZZ
@given(line=manifest_records())
def test_sample_from_json_parses_or_raises_data_error(line):
    _check_record(line)


@FUZZ
@given(line=st.one_of(st.text(max_size=40), _JSON.map(json.dumps)))
def test_sample_from_json_on_arbitrary_lines(line):
    _check_record(line)


# what the parser itself refuses: nesting past its recursion limit and an
# integer past int()'s digit limit
_REFUSED = st.sampled_from([b"[" * 100000, b'{"a": ' * 5000, b"1" * 5000])


@FUZZ
@given(raw=st.one_of(st.binary(max_size=48), _JSON.map(lambda v: json.dumps(v).encode()),
                     _REFUSED))
def test_read_json_parses_or_raises_data_error(tmp_path, raw):
    path = tmp_path / "f.json"
    path.write_bytes(raw)
    try:
        read_json(path)
    except DataError:
        pass


_LINES = st.one_of(manifest_records(), st.text(max_size=20))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=64), _REFUSED,
                     st.lists(_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode())))
def test_load_manifest_parses_or_raises_data_error(tmp_path, raw):
    (tmp_path / "manifest.jsonl").write_bytes(raw)
    try:
        samples = load_manifest(tmp_path)
    except DataError:
        return
    for s in samples:
        _assert_well_formed(s)
