"""Generated documents: every one either loads or is rejected with a
ValueError that names its path."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st  # noqa: E402

from latticeface.document import load_polytope  # noqa: E402
from latticeface.polytope import Polytope  # noqa: E402

# JSON text of one coordinate or other scalar: small and huge integers (Python
# refuses to parse more than 4300 digits), rational strings good and bad,
# floats, NaN and infinities, non-ASCII digits bare and quoted, and the rest.
_HOSTILE = st.sampled_from([
    '"1/0"', '"0/0"', '"1/-2"', '" 1"', '"1e3"', "9" * 4300, "9" * 4301, '"1/' + "9" * 4301 + '"',
    "1.5", "-0.0", "1e400", "NaN", "Infinity", "-Infinity", '"١"', '"１/２"', "٣", "true",
    "null", '""', "{}", "[]",
])
_SCALARS = st.one_of(
    st.integers(-50, 50).map(str),
    st.integers(-10**40, 10**40).map(str),
    st.sampled_from(['"1/2"', '"-3/4"', '"+2"', '"7"']),
    _HOSTILE,
    st.text(max_size=4).map(lambda t: '"' + t.replace("\\", "").replace('"', "") + '"'),
)


def _array(items):
    return st.lists(items, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")


def _object(values):
    """A JSON object whose keys may repeat."""
    keys = st.sampled_from(['"ambient_dim"', '"vertices"', '"a"'])
    pairs = st.lists(st.tuples(keys, values), max_size=4)
    return pairs.map(lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}")


_NESTED = st.recursive(_SCALARS, lambda inner: st.one_of(_array(inner), _object(inner)),
                       max_leaves=10)


@st.composite
def _near_documents(draw):
    """A well-formed document with rows of length ambient_dim, given at most
    one defect: a bad coordinate, a bad ambient_dim, a row of the wrong
    length, or a repeated or deeply nested extra key."""
    dim = draw(st.integers(0, 3))
    good = st.one_of(st.integers(-4, 4).map(str), st.sampled_from(['"1/2"', '"-3/4"', '"+2"']))
    rows = draw(st.lists(st.lists(good, min_size=dim, max_size=dim), max_size=5))
    dim_text, extra = str(dim), ""
    defect = draw(st.integers(0, 5))
    if defect == 1 and rows and dim:
        rows[0][0] = draw(_HOSTILE)
    elif defect == 2:
        dim_text = draw(_SCALARS)
    elif defect == 3:
        rows.append(draw(st.lists(good, max_size=4)))
    elif defect == 4:
        extra = draw(st.sampled_from([', "vertices": [[0]]', ', "b": {"a": 1, "a": 2}',
                                      ', "c": ' + "[" * 3000 + "]" * 3000]))
    vertices = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"
    return '{"ambient_dim": ' + dim_text + ', "vertices": ' + vertices + extra + "}"


@seed(2024)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=st.one_of(_near_documents(), _object(_NESTED), _NESTED))
@example(text='{"ambient_dim": 2, "vertices": [[0, 0], ["1/2", 0], [0, 1]]}')
@example(text='{"ambient_dim": 1, "vertices": [[1.5], [0]]}')
@example(text='{"ambient_dim": 1, "vertices": [[NaN], [0]]}')
@example(text='{"ambient_dim": 1, "vertices": [["1/0"], [0]]}')
@example(text='{"ambient_dim": 1, "vertices": [[' + "9" * 4301 + '], [0]]}')
@example(text='{"ambient_dim": 1, "vertices": [["\u0661"], [\u0663]]}')
@example(text='{"ambient_dim": 1, "vertices": [[0], ["' + "9" * 4301 + '"]]}')
def test_load_polytope_loads_or_names_the_path(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    try:
        poly = load_polytope(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        assert isinstance(poly, Polytope)
