"""Round trips of the config format and the sample CSV, as properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracreg import config as cfgmod
from fracreg.graph import SampleSet

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=300, deadline=None)

KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,12}", fullmatch=True)
# one-line printable text; the format has no escape for a double quote
STRINGS = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                                exclude_characters='"'), max_size=20)
INTS = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.one_of(STRINGS, INTS, st.booleans(), FLOATS,
                   st.lists(st.one_of(INTS, FLOATS), max_size=6))


def same_value(got, want):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_value(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        # 1.0 is written "1" and reads back as the integer 1; -0.0 keeps its sign
        return (not isinstance(got, (bool, str)) and float(got) == want
                and math.copysign(1.0, got) == math.copysign(1.0, want))
    return type(got) is type(want) and got == want


@ROUND_TRIP
@given(st.dictionaries(KEYS, VALUES, max_size=6))
@example({"a": -0.0, "b": [-0.0, 5.0]})
def test_parse_inverts_serialize(mapping):
    text = cfgmod.serialize(mapping)
    entries = cfgmod.parse_text(text)
    assert list(entries) == list(mapping)
    for key, value in mapping.items():
        assert same_value(entries[key].value, value), (key, value, text)


@ROUND_TRIP
@given(STRINGS)
def test_strings_stay_strings(text):
    assert cfgmod.parse_text(cfgmod.serialize({"data": text}))["data"].value == text


def test_string_with_a_double_quote_is_refused():
    # written bare it would read back cut at the '#': k = "a"#b" -> a
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.serialize({"k": 'a"#b'})


@pytest.mark.parametrize("text, want", [
    ('n = 50 # the "small" case', {"n": 50}),
    ('n = "a#b" # c', {"n": "a#b"}),
    ('n = "a" "b" # c', {"n": 'a" "b'}),
    ('n = "a # b', {"n": '"a # b'}),  # an unclosed quote: nothing is a comment
    ('n = a"b # c', {"n": 'a"b # c'}),
    ('# full "line"\n  # "a" # b', {}),
])
def test_a_comment_starts_at_the_first_hash_outside_quotes(text, want):
    assert {key: entry.value for key, entry in cfgmod.parse_text(text).items()} == want


def test_negative_zero_is_written_as_a_float():
    assert cfgmod.serialize({"a": -0.0, "b": [0.0, -0.0], "c": 5.0}) == \
        "a = -0.0\nb = [0, -0.0]\nc = 5\n"
    value = cfgmod.parse_text("a = -0.0\n")["a"].value
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


def test_strings_that_read_as_other_values_are_quoted():
    for text in ("12", "-3.5", "true", "False", "inf", "nan", "1_000", ""):
        line = cfgmod.serialize({"data": text})
        assert line == 'data = "%s"\n' % text
        assert cfgmod.parse_text(line)["data"].value == text
    assert cfgmod.serialize({"data": "runs/a.csv"}) == "data = runs/a.csv\n"


@ROUND_TRIP
@given(st.integers(2, 12), st.integers(1, 3), st.booleans(), st.data())
def test_sample_csv_round_trip(tmp_path_factory, n, dim, with_responses, data):
    cells = st.lists(FLOATS, min_size=n * dim, max_size=n * dim)
    points = np.array(data.draw(cells)).reshape(n, dim)
    responses = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n))) \
        if with_responses else None
    path = tmp_path_factory.mktemp("samples") / "samples.csv"
    SampleSet(points, responses).save_csv(path)
    back = SampleSet.load_csv(path)
    assert np.array_equal(back.points, points)
    assert all(math.copysign(1.0, a) == math.copysign(1.0, b)
               for a, b in zip(back.points.ravel(), points.ravel()))
    if with_responses:
        assert np.array_equal(back.responses, responses)
    else:
        assert back.responses is None


def test_view_records_what_it_hands_out_in_read_order():
    view = cfgmod.ConfigView(cfgmod.parse_text("b = 2\na = [1, 2]\n"))
    assert view.get_list("a", kind=int) == [1, 2]
    assert view.get_float("missing") is None
    assert view.get_str("c", default="x") == "x"
    with pytest.raises(cfgmod.ConfigError, match="<config>:1: unknown key 'b'"):
        view.reject_unknown()
    assert view.get_float("b", ge=0.0) == 2.0
    view.reject_unknown()
    assert view.effective == {"a": [1, 2], "c": "x", "b": 2.0}
    assert cfgmod.serialize(view.effective) == "a = [1, 2]\nc = x\nb = 2\n"


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1" + "0" * 400])
def test_view_refuses_numbers_that_are_not_finite(text):
    view = cfgmod.ConfigView(cfgmod.parse_text("a = %s\nb = [1.5, %s]\nc = [%s]\n"
                                               % (text, text, text)))
    with pytest.raises(cfgmod.ConfigError, match="<config>:1: 'a' must be finite"):
        view.get_float("a")
    for key in ("b", "c"):
        with pytest.raises(cfgmod.ConfigError, match="'%s' must be finite" % key):
            view.get_list(key)
    with pytest.raises(cfgmod.ConfigError, match="must lie in"):
        view.get_unit_open("a")
    assert view.effective == {}
