"""``--fleet`` and ``--placement`` files fail by name.

One table of documents per loader, each row with its one defined
outcome: a valid document loads, any other is a ``ValueError`` naming
the file, the group or table index, the key, the offending value and
what is allowed -- and the ``cluster`` command exits 2 with that
message instead of a traceback or a silently truncated number.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import load_fleet, load_placement


def _group(**overrides):
    return dict({"count": 2, "prefix": "n"}, **overrides)


def _fleet(*groups):
    return json.dumps({"groups": list(groups)})


#: (id, file text, message after "fleet <path>: "; None = loads)
FLEET_DOCUMENTS = [
    ("valid", _fleet(_group(), _group(prefix="m", hw="paper-nogpu",
                                      underclock_pct=10,
                                      downgrade="medium")), None),
    ("truncated", _fleet(_group())[:20],
     "Expecting ':' delimiter: line 1 column 21 (char 20)"),
    ("not-an-object", "[1]",
     "expected an object with a 'groups' list, got a list"),
    ("unknown-document-key", json.dumps({"groups": [_group()], "n": 1}),
     "unknown keys ['n']"),
    ("no-groups", _fleet(), "'groups' must be a non-empty list, got []"),
    ("group-not-an-object", _fleet(1), "group 0: expected an object, got 1"),
    ("unknown-key", _fleet(_group(cores=4)),
     "group 0: unknown keys ['cores']"),
    ("missing-count", _fleet({"prefix": "n"}),
     "group 0: missing key 'count'"),
    ("non-integer-count", _fleet(_group(count=3.7)),
     "group 0: 'count' must be a positive integer, got 3.7"),
    ("string-count", _fleet(_group(count="two")),
     "group 0: 'count' must be a positive integer, got 'two'"),
    ("zero-count", _fleet(_group(count=0)),
     "group 0: 'count' must be a positive integer, got 0"),
    ("bool-count", _fleet(_group(count=True)),
     "group 0: 'count' must be a positive integer, got True"),
    ("wrong-type-prefix", _fleet(_group(prefix=5)),
     "group 0: 'prefix' must be a string, got 5"),
    ("unknown-hw", _fleet(_group(), _group(prefix="m", hw="cray")),
     "group 1: 'hw' must be one of ['paper', 'paper-diskless', "
     "'paper-nogpu'], got 'cray'"),
    ("underclock-out-of-range", _fleet(_group(underclock_pct=100)),
     "group 0: 'underclock_pct' must be a number in [0, 100), got 100"),
    ("unknown-downgrade", _fleet(_group(downgrade="huge")),
     "group 0: 'downgrade' must be one of ['none', 'small', 'medium'], "
     "got 'huge'"),
    ("negative-capacity", _fleet(_group(capacity=-1)),
     "group 0: 'capacity' must be a positive number, got -1"),
    ("nan-wake-latency", _fleet(_group(wake_latency_s=float("nan"))),
     "group 0: 'wake_latency_s' must be a non-negative number, got nan"),
    ("duplicate-node", _fleet(_group(), _group(count=1)),
     "group 1: 'prefix' 'n' names node 'n00' again (group 0); "
     "node names must be unique"),
]


def _table(**overrides):
    doc = {"table": "lineitem", "column": "l_quantity", "shards": 2,
           "replicas": 1, "replica_map": [["node00"], ["node01"]]}
    doc.update(overrides)
    return {key: value for key, value in doc.items() if value is not None}


def _plan(*tables):
    return json.dumps({"tables": list(tables)})


#: (id, file text, message after "placement <path>: "; None = loads)
PLACEMENT_DOCUMENTS = [
    ("valid", _plan(_table(replicas=2, quorum=2, replica_map=[
        ["node00", "node01"], ["node01", "node00"]])), None),
    ("truncated", _plan(_table())[:30],
     "Unterminated string starting at: line 1 column 23 (char 22)"),
    ("not-an-object", json.dumps([_table()]),
     "expected an object with a 'tables' list, got a list"),
    ("tables-not-a-list", json.dumps({"tables": 5}),
     "'tables' must be a list, got 5"),
    ("table-not-an-object", _plan(1), "table 0: expected an object, got 1"),
    ("unknown-key", _plan(_table(sharding="x")),
     "table 0: unknown keys ['sharding']"),
    ("missing-key", _plan(_table(column=None)),
     "table 0: missing key 'column'"),
    ("wrong-type-replica-map", _plan(_table(replica_map=5)),
     "table 0: 'replica_map' must be a list of per-shard node-name "
     "lists, got 5"),
    ("string-shards", _plan(_table(shards="two")),
     "table 0: 'shards' must be a positive integer, got 'two'"),
    ("non-integer-shards", _plan(_table(shards=3.7)),
     "table 0: 'shards' must be a positive integer, got 3.7"),
    ("quorum-out-of-range", _plan(_table(quorum=2)),
     "table 0: 'quorum' must be an integer in [1, 1], got 2"),
    ("unknown-kind", _plan(_table(kind="list")),
     "table 0: 'kind' must be one of ['hash', 'range'], got 'list'"),
    ("range-without-bounds", _plan(_table(kind="range")),
     "table 0: range partitioning needs shards - 1 bounds (1), got 0"),
    ("duplicate-node", _plan(_table(replicas=2, replica_map=[
        ["node00", "node00"], ["node01", "node00"]])),
     "table 0: 'replica_map[0]' must be 2 distinct node names, "
     "got ('node00', 'node00')"),
    ("table-placed-twice", _plan(_table(), _table()),
     "duplicate placement for 'lineitem'"),
]

LOADERS = {
    "fleet": (load_fleet, FLEET_DOCUMENTS),
    "placement": (load_placement, PLACEMENT_DOCUMENTS),
}


def _write(tmp_path, kind, text):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    return str(path)


def _rows(kind, invalid_only=False):
    return [
        pytest.param(kind, text, message, id=f"{kind}-{row_id}")
        for row_id, text, message in LOADERS[kind][1]
        if message is not None or not invalid_only
    ]


class TestLoaderTables:
    @pytest.mark.parametrize("kind, text, message",
                             _rows("fleet") + _rows("placement"))
    def test_each_document_has_one_outcome(self, tmp_path, kind, text,
                                           message):
        load, _ = LOADERS[kind]
        path = _write(tmp_path, kind, text)
        if message is None:
            assert load(path)
            return
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{kind} {path}: {message}")

    def test_valid_fleet_expands_every_group(self, tmp_path):
        specs = load_fleet(_write(tmp_path, "fleet", FLEET_DOCUMENTS[0][1]))
        assert [s.name for s in specs] == ["n00", "n01", "m00", "m01"]
        assert specs[2].hw == "paper-nogpu"
        assert specs[2].setting.describe() == "10% underclock / medium"
        assert load_fleet("examples/hetero_fleet.json")

    def test_valid_placement_round_trips(self, tmp_path):
        text = PLACEMENT_DOCUMENTS[0][1]
        pm = load_placement(_write(tmp_path, "placement", text))
        assert pm.to_dict()["tables"][0]["quorum"] == 2
        assert load_placement("examples/placement.json")


class TestCliExitsByName:
    @pytest.mark.parametrize(
        "kind, text, message",
        _rows("fleet", invalid_only=True)
        + _rows("placement", invalid_only=True),
    )
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys, kind,
                                              text, message):
        path = _write(tmp_path, kind, text)
        rc = main(["cluster", "--sf", "0.002", "--nodes", "2",
                   "--arrivals", "5", f"--{kind}", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {kind} {path}: {message}")

    def test_placement_outside_the_fleet_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "placement", _plan(_table(
            replica_map=[["node00"], ["ghost"]])))
        rc = main(["cluster", "--sf", "0.002", "--nodes", "2",
                   "--arrivals", "5", "--placement", path])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: placement map references unknown nodes: ['ghost']\n"
        )
