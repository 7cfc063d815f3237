"""State table files: the bulk reader against a row-by-row oracle.

cli._table_from reads all rows of a table file at once, as numpy arrays.
The oracle below reads them one at a time through Permutation.from_cycles
and the Permutation-keyed StateFunction constructor.  On any JSON
`values` list both must give the same vector, bit for bit, or the same
error message at the same row.
"""

import itertools
import json
import random

from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from stablerep import cli
from stablerep.cli import InputError
from stablerep.fourier import StateFunction
from stablerep.permutations import Permutation


def read_rows_one_by_one(data, where):
    level, rows = data["level"], data["values"]
    values = {}
    for i, row in enumerate(rows):
        loc = "%s values[%d]" % (where, i)
        if not isinstance(row, list) or len(row) != 2:
            raise InputError("values[%d] is not a [cycles, value] pair" % i, location=loc)
        g = cli._perm_from_cycles(row[0], loc)
        if g in values:
            raise InputError("the permutation of an earlier row is given again", location=loc)
        if g.level > level:
            raise InputError("moves a point above level %d" % level, location=loc)
        values[g] = cli._number_from(row[1], loc)
    return StateFunction(level, values)


def outcome(read, data):
    try:
        return "ok", read(data, "t.json").vector.tobytes()
    except InputError as exc:
        return "error", str(exc), exc.location


_odd_points = st.sampled_from([0, -1, -2 ** 65, 9, 2 ** 63 - 1, 2 ** 63, 2 ** 65, 10 ** 21])
_junk_points = st.booleans() | st.floats(-3, 3) | st.sampled_from(["1", None, [1], {}])
_good_numbers = (st.floats(-2, 2) | st.integers(-3, 3)
                 | st.sampled_from(["1/3", "-2/7", "5", 10 ** 300, 0.0, -0.0]))
_bad_numbers = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400, "1/0",
                                "x", "", None, True, False, [], {}, "1e400"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=1), kids, max_size=2),
    max_leaves=6)


@st.composite
def _cycles_of(draw, word, level):
    """The cycles of a permutation as a file may list them: any order and
    rotation, with empty cycles and 1-cycles, some of them above level."""
    cycles = [c[k:] + c[:k] for c in Permutation.from_one_line(word).cycles()
              for k in [draw(st.integers(0, len(c) - 1))]]
    fixed = [p for p in range(1, level + 1) if word[p - 1] == p] + [level + 1, level + 7, 2 ** 65]
    cycles += [[p] for p in draw(st.lists(st.sampled_from(fixed), unique=True, max_size=3))]
    cycles += [[]] * draw(st.integers(0, 1))
    return draw(st.permutations(cycles))


@st.composite
def table_data(draw):
    level = draw(st.integers(0, 5))
    # A small pool of permutations, so that rows repeat one another.
    pool = draw(st.lists(st.permutations(range(1, level + 1)), min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cycles = draw(_cycles_of(tuple(draw(st.sampled_from(pool))), level))
        number = draw(_good_numbers)
        # Each error of ERRORS has a kind that makes it on purpose.  Only a
        # file's first bad row is read, so those kinds outweigh good rows:
        # test_the_strategy_reaches_every_outcome must meet each of them.
        kind = draw(st.sampled_from(
            ["good"] * 2 + ["free", "point", "junk"]
            + ["non-integer", "non-list", "non-positive", "repeat", "overlap", "above", "number",
               "not-a-pair"] * 2))
        if kind == "free":
            point = st.integers(1, level + 1) | st.integers(-1, level + 2) | _odd_points
            cycles = draw(st.lists(st.lists(point, max_size=4), max_size=3))
        elif kind == "point" and cycles:
            c = draw(st.integers(0, len(cycles) - 1))
            cycles[c] = cycles[c] + [draw(_odd_points | _junk_points | st.integers(1, level + 1))]
        elif kind == "non-integer":
            cycles.append([draw(_junk_points), 1])
        elif kind == "non-list":
            # Not a cycle at all: the row's permutation is no list of cycles.
            cycles.insert(draw(st.integers(0, len(cycles))),
                          draw(_junk_points.filter(lambda x: not isinstance(x, list))))
        elif kind == "non-positive":
            # No other cycle of the row holds a point below 1.
            cycles.append([draw(st.sampled_from([0, -1, -2 ** 65])), -2])
        elif kind in ("repeat", "overlap") and any(cycles):
            c = draw(st.sampled_from([c for c in cycles if c]))
            p = draw(st.sampled_from(c))
            if kind == "overlap":
                cycles.append([p])
            else:
                cycles[cycles.index(c)] = c + [p]
            cycles = draw(st.permutations(cycles))
        elif kind == "above":
            cycles.append([level + 2, draw(st.sampled_from([level + 3, 10 ** 21, 2 ** 65 + 1]))])
        elif kind == "number":
            number = draw(_bad_numbers)
        row = [cycles, number]
        if kind == "not-a-pair":
            row = draw(st.sampled_from([[cycles], [cycles, number, 1]]))
        if kind == "junk":
            row = draw(_json | st.just([cycles]) | st.just([cycles, number, 1])
                       | st.just([draw(_json), number]) | st.just([[draw(_json)], number]))
        rows.append(row)
    # Decoded JSON, as a file would give it (NaN and Infinity included).
    return json.loads(json.dumps({"level": level, "values": rows}))


@settings(max_examples=400, deadline=None)
@given(data=table_data())
@example(data={"level": 3, "values": [[[[1, 2], [2, 3]], 1.0]]})
@example(data={"level": 3, "values": [[[[1, 2, 1]], 1.0]]})
@example(data={"level": 3, "values": [[[[9], [9]], 1.0]]})
@example(data={"level": 3, "values": [[[[9], [2 ** 65], [3, 1]], 1.0], [[[1, 10 ** 21]], 1.0]]})
def test_bulk_reader_matches_the_row_by_row_oracle(data):
    assert outcome(cli._table_from, data) == outcome(read_rows_one_by_one, data)


ERRORS = {
    "is not a [cycles, value] pair": "pair",
    "permutation must be a list of cycles": "cycles",
    "cycle points must be integers": "points",
    "repeated point inside cycle": "repeated",
    "cycles are not disjoint": "disjoint",
    "points must be positive integers": "positive",
    "given again": "again",
    "moves a point above level": "above",
    "expected a finite number": "number",
}


def test_the_strategy_reaches_every_outcome():
    # One search per outcome, each with its own budget.  A file's outcome is
    # its first bad row only, and Hypothesis copies parts of earlier examples,
    # so the outcomes of one shared sweep clump and a rare one can miss.
    def outcomes(data):
        result = outcome(read_rows_one_by_one, data)
        return {"ok"} if result[0] == "ok" else {
            kind for text, kind in ERRORS.items() if text in result[1]}

    budget = settings(max_examples=2000, deadline=None, database=None, phases=[Phase.generate])
    for wanted in ["ok", *ERRORS.values()]:
        find(table_data(), lambda data: wanted in outcomes(data), settings=budget)


def test_repeated_values_read_as_each_one_alone():
    # The reader parses each distinct string once.  True, 1 and 1.0, 0.0
    # and -0.0, and each bad value must still read as _number reads it alone.
    good = [1, 1.0, 0.0, -0.0, 2 ** 70, "1/2", " 1/2", "-3/4", "5", 0.5]
    bad = [True, False, "x", "1/0", "1e400", 10 ** 400, None]
    rng = random.Random(32)
    words = list(itertools.permutations(range(1, 5)))
    for i in range(300):
        values = rng.choices(good, k=12)
        if i % 2:
            values[rng.randrange(12)] = rng.choice(bad)
        rows = [[Permutation.from_one_line(w).cycles(), v]
                for w, v in zip(rng.sample(words, 12), values)]
        data = {"level": 4, "values": rows}
        assert outcome(cli._table_from, data) == outcome(read_rows_one_by_one, data), rows
