import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panelmetrics.emit import csv_text, fmt6, write_json


@dataclasses.dataclass(frozen=True)
class Holder:
    array: np.ndarray
    count: np.int64
    value: np.float64
    pair: tuple
    table: dict
    nothing: None


def test_write_json_text(tmp_path):
    path = tmp_path / "holder.json"
    write_json(
        path,
        Holder(
            array=np.array([[0.1, 2.0]]),
            count=np.int64(3),
            value=np.float64(1 / 3),
            pair=(1, "a"),
            table={"k": np.arange(2), "inner": [Holder(np.array([]), 0, 0.0, (), {}, None)]},
            nothing=None,
        ),
    )
    assert path.read_text() == """\
{
  "array": [
    [
      0.1,
      2.0
    ]
  ],
  "count": 3,
  "value": 0.3333333333333333,
  "pair": [
    1,
    "a"
  ],
  "table": {
    "k": [
      0,
      1
    ],
    "inner": [
      {
        "array": [],
        "count": 0,
        "value": 0.0,
        "pair": [],
        "table": {},
        "nothing": null
      }
    ]
  },
  "nothing": null
}
"""


def test_write_json_rejects_what_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "set.json", {"values": {1, 2}})


def json_default(obj):
    """The ``json.dumps`` hook that ``write_json`` once passed: the
    reference for what it writes."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@dataclasses.dataclass(frozen=True)
class Pair:
    first: object
    second: object


FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]
)
TEXT = st.text(st.characters(exclude_categories=("Cs",))) | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "é1", "日本", "\U0001f600"]
)
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements={"allow_nan": True, "allow_infinity": True, "allow_subnormal": True},
) | hnp.arrays(
    st.sampled_from([np.float64, np.float32]),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(-1e6, 1e6, width=32),
)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT, ARRAYS, NUMPY_SCALARS
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT | st.integers() | FLOATS | st.booleans() | st.none(), children,
                        max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=12,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=VALUES)
@example(obj={"qq": np.array([[-1.5, 0.25], [3.0, 1e-300]]), "rows": [Pair(np.float32(0.1), ())]})
@example(obj=np.zeros((2, 0, 3)))
@example(obj=np.array(2.5))
@example(obj=np.array([1.0, math.nan, -math.inf]))
@example(obj=[np.float64(-0.0), 5e-324, np.float32(1e-45)])
@example(obj={'a "quoted"\nkey': "é, 日本 and \x07"})
@example(obj={1: [], -0.0: (), math.nan: None, True: {}, None: 0})
def test_write_json_equals_json_dumps(tmp_path, obj):
    path = tmp_path / "obj.json"
    write_json(path, obj)
    expected = json.dumps(obj, indent=2, default=json_default) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


@given(
    rows=hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.float16]),
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
        elements={"allow_nan": True, "allow_infinity": True, "allow_subnormal": True},
    )
)
@example(rows=np.array([[-0.0, 5e-324], [math.nan, -math.inf], [123456.5, 1e-5]]))
@example(rows=np.zeros((3, 0)))
def test_csv_text_of_a_float_array_equals_the_per_cell_path(rows):
    header = [f"c{j}" for j in range(rows.shape[1])]
    assert csv_text(header, rows) == csv_text(header, iter(rows))


def test_fmt6_numpy_bool_reads_as_python_bool():
    assert fmt6(np.bool_(True)) == fmt6(True) == "true"
    assert fmt6(np.bool_(False)) == fmt6(False) == "false"
