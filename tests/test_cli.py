from __future__ import annotations

import json
import math
import weakref

import pytest

from matsub import cli, objectives
from matsub.cli import main
from matsub.core import greedy_basis_value
from matsub.instances import ELEMENT_FIELDS, NUMBER_FIELDS, Instance, LaminarMatroid


def _gen(tmp_path, *extra: str) -> str:
    path = str(tmp_path / "inst.json")
    argv = [
        "gen", "--matroid", "laminar", "--function", "coverage",
        "--n", "9", "--seed", "3", "-o", path,
    ]
    assert main(argv + list(extra)) == 0
    return path


def _run(path: str, out: str, *extra: str) -> None:
    argv = ["run", path, "--epsilon", "0.2", "--seed", "11", "-o", out]
    assert main(argv + list(extra)) == 0


def test_gen_is_byte_deterministic(tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        assert main([
            "gen", "--matroid", "graphic", "--function", "facility",
            "--n", "12", "--seed", "5", "-o", str(target),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_zero_elements(tmp_path) -> None:
    out = str(tmp_path / "x.json")
    assert main([
        "gen", "--matroid", "laminar", "--function", "additive",
        "--n", "0", "--seed", "1", "-o", out,
    ]) == 1


def test_gen_shape_knobs_change_the_instance(tmp_path) -> None:
    flat = tmp_path / "flat.json"
    deep = tmp_path / "deep.json"
    base = [
        "gen", "--matroid", "laminar", "--function", "additive",
        "--n", "16", "--seed", "2",
    ]
    assert main(base + ["--tree-depth", "1", "-o", str(flat)]) == 0
    assert main(base + ["--tree-depth", "6", "-o", str(deep)]) == 0
    assert flat.read_bytes() != deep.read_bytes()
    sparse = tmp_path / "sparse.json"
    assert main([
        "gen", "--matroid", "transversal", "--function", "additive",
        "--n", "16", "--seed", "2", "--degree", "1", "-o", str(sparse),
    ]) == 0
    inst = Instance.from_json(sparse.read_text())
    assert all(len(nbrs) == 1 for nbrs in inst.matroid.adjacency)


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_gen_rejects_a_nonpositive_tree_depth(depth, tmp_path, capsys) -> None:
    out = tmp_path / "x.json"
    assert main([
        "gen", "--matroid", "laminar", "--function", "additive",
        "--n", "40", "--seed", "1", "--tree-depth", depth, "-o", str(out),
    ]) == 1
    assert "tree depth must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, knob, family",
    [
        ("--tree-depth", "9", "tree depth", "laminar"),
        ("--density", "3", "density", "graphic"),
        ("--degree", "2", "degree", "transversal"),
    ],
)
def test_gen_rejects_a_knob_of_another_family(flag, value, knob, family, tmp_path, capsys) -> None:
    for kind in ("laminar", "graphic", "transversal"):
        out = tmp_path / f"{kind}.json"
        argv = [
            "gen", "--matroid", kind, "--function", "additive",
            "--n", "40", "--seed", "1", flag, value, "-o", str(out),
        ]
        if kind == family:
            assert main(argv) == 0
            continue
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert knob in err and family in err
        assert not out.exists()


def test_generated_greedy_basis_is_feasible(tmp_path) -> None:
    path = _gen(tmp_path)
    inst = Instance.from_json(open(path).read())
    _value, basis = greedy_basis_value(
        inst.build_objective(), range(inst.n), inst.matroid.checker
    )
    assert inst.matroid.is_independent(basis)


def test_run_records_are_deterministic_up_to_wall_time(tmp_path) -> None:
    path = _gen(tmp_path)
    records = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        _run(path, out)
        record = json.loads(open(out).read())
        record.pop("wall_time_s")
        records.append(record)
    assert records[0] == records[1]


def test_only_a_full_record_names_the_streams_it_drew_from(tmp_path) -> None:
    # the pipeline draws from three substreams of the run seed; an instance
    # does not record the seed that generated it, and the baselines draw
    # from no stream, so their records carry no seed
    path = _gen(tmp_path)
    keys = {}
    for algo in ("full", "greedy", "brute"):
        out = str(tmp_path / f"{algo}.json")
        _run(path, out, "--algorithm", algo)
        record = json.loads(open(out).read())
        keys[algo] = set(record)
        if algo == "full":
            assert record["streams"] == {
                "phase1": [11, 1], "multilinear": [11, 2], "rounding": [11, 3]
            }
    assert keys["full"] == {
        "version", "seed", "streams", "algorithm", "epsilon", "solution", "value",
        "frozen", "opt_estimate", "counters", "wall_time_s",
    }
    assert keys["greedy"] == keys["brute"] == {
        "version", "algorithm", "solution", "value", "counters", "wall_time_s",
    }


def test_run_full_drops_the_checking_oracle_before_the_pipeline(tmp_path, monkeypatch) -> None:
    # the oracle built to check the payload is freed before the pipeline
    # builds its own, so the two are never held together
    path = _gen(tmp_path)
    built: list[weakref.ref] = []
    genuine_build = Instance.build_objective

    def build(self):
        f = genuine_build(self)
        built.append(weakref.ref(f))
        return f

    alive: list[bool] = []
    genuine_run = cli.run_pipeline

    def run(*args, **kwargs):
        alive.extend(ref() is not None for ref in built)
        return genuine_run(*args, **kwargs)

    monkeypatch.setattr(Instance, "build_objective", build)
    monkeypatch.setattr(cli, "run_pipeline", run)
    _run(path, str(tmp_path / "res.json"))
    assert alive == [False]


def test_run_baselines_bracket_the_pipeline(tmp_path) -> None:
    path = _gen(tmp_path)
    values = {}
    for algo in ("full", "greedy", "brute"):
        out = str(tmp_path / f"{algo}.json")
        _run(path, out, "--algorithm", algo)
        values[algo] = json.loads(open(out).read())["value"]
    assert values["greedy"] >= 0.5 * values["brute"] - 1e-9
    assert values["full"] >= (1 - 1 / math.e - 0.2) * values["brute"] - 1e-9
    assert values["full"] <= values["brute"] + 1e-9


def test_run_rejects_out_of_range_epsilon(tmp_path) -> None:
    path = _gen(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["run", path, "--epsilon", "0.5", "-o", out]) == 2


def test_gen_rejects_a_negative_seed(tmp_path) -> None:
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main([
            "gen", "--matroid", "laminar", "--function", "additive",
            "--n", "5", "--seed", "-1", "-o", str(out),
        ])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["full", "greedy", "brute"])
def test_run_rejects_a_negative_seed(tmp_path, algorithm) -> None:
    # a run seed names numpy streams, which take no negative seed
    path = _gen(tmp_path)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--algorithm", algorithm, "--seed", "-5", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_missing_instance_is_usage_error(tmp_path) -> None:
    out = str(tmp_path / "r.json")
    assert main(["run", str(tmp_path / "absent.json"), "-o", out]) == 2


def test_verify_accepts_untouched_and_rejects_tampered(tmp_path, capsys) -> None:
    path = _gen(tmp_path)
    out = str(tmp_path / "res.json")
    _run(path, out)
    assert main(["verify", path, out]) == 0
    capsys.readouterr()
    record = json.loads(open(out).read())
    record["solution"] = list(range(9))  # over capacity for sure
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as handle:
        json.dump(record, handle)
    assert main(["verify", path, bad]) == 1
    text = capsys.readouterr().out
    assert "feasibility: FAIL" in text or "value: FAIL" in text


def test_verify_flags_counter_overruns(tmp_path, capsys) -> None:
    path = _gen(tmp_path)
    out = str(tmp_path / "res.json")
    _run(path, out)
    record = json.loads(open(out).read())
    record["counters"]["phase2_f_queries"] = 10**12
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as handle:
        json.dump(record, handle)
    assert main(["verify", path, bad]) == 1
    assert "phase-2 query budget: FAIL" in capsys.readouterr().out


def test_verify_flags_a_delete_overrun(tmp_path, capsys) -> None:
    path = _gen(tmp_path, "--matroid", "transversal")
    out = str(tmp_path / "res.json")
    _run(path, out)
    assert main(["verify", path, out]) == 0
    assert "delete budget: ok" in capsys.readouterr().out
    record = json.loads(open(out).read())
    # at most n deletes in each of the ceil(1/eps) = 5 rounds
    record["counters"]["dt_deletes"] = 9 * 5 + 1
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as handle:
        json.dump(record, handle)
    assert main(["verify", path, bad]) == 1
    assert "delete budget: FAIL" in capsys.readouterr().out


def test_verify_flags_a_span_overrun(tmp_path, capsys) -> None:
    path = _gen(tmp_path)
    out = str(tmp_path / "res.json")
    _run(path, out)
    assert main(["verify", path, out]) == 0
    assert "span budget: ok" in capsys.readouterr().out
    record = json.loads(open(out).read())
    # a retired element stays retired for its round: at most n per round
    record["counters"]["dt_spanned"] = 9 * 5 + 1
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as handle:
        json.dump(record, handle)
    assert main(["verify", path, bad]) == 1
    assert "span budget: FAIL" in capsys.readouterr().out


def test_verify_flags_a_query_total_that_does_not_add_up(tmp_path, capsys) -> None:
    path = _gen(tmp_path)
    out = str(tmp_path / "res.json")
    _run(path, out)
    assert main(["verify", path, out]) == 0
    assert "query total: ok" in capsys.readouterr().out
    record = json.loads(open(out).read())
    # each stage within its budget, but one query unaccounted for
    record["counters"]["total_f_queries"] += 1
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as handle:
        json.dump(record, handle)
    assert main(["verify", path, bad]) == 1
    assert "query total: FAIL" in capsys.readouterr().out


# damaged copies of a valid file: each must end in a clean "corrupt" error,
# never in a traceback or a silent pass; instance damage names the matroid
# kind of the generated file it is applied to


def _put(doc, value, *path):
    """Set ``doc[path[0]]...[path[-1]] = value`` in place; return ``doc``."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


DAMAGE = {
    "instance-is-a-list": ("laminar", lambda doc: [doc]),
    # JSON true and 1.0 both compare equal to the format version 1
    "boolean-version": ("laminar", lambda doc: {**doc, "version": True}),
    "fractional-version": ("laminar", lambda doc: {**doc, "version": 1.0}),
    "null-parents": ("laminar", lambda doc: {
        **doc, "matroid": {**doc["matroid"], "parents": None}}),
    "integer-covers": ("laminar", lambda doc: {
        **doc, "objective": {**doc["objective"], "covers": 5}}),
    "fractional-item-id": ("laminar", lambda doc: {
        **doc, "objective": {
            **doc["objective"], "covers": [[0.5]] + doc["objective"]["covers"][1:]}}),
    "boolean-item-id": ("laminar", lambda doc: _put(doc, [0, True], "objective", "covers", 0)),
    "fractional-capacity": ("laminar", lambda doc: _put(doc, 1.5, "matroid", "capacities", 0)),
    "boolean-capacity": ("laminar", lambda doc: _put(doc, True, "matroid", "capacities", 0)),
    "fractional-endpoint": ("graphic", lambda doc: _put(doc, 0.5, "matroid", "edges", 0, 0)),
    "fractional-num-vertices": ("graphic", lambda doc: _put(
        doc, doc["matroid"]["num_vertices"] + 0.7, "matroid", "num_vertices")),
    "fractional-right-id": ("transversal", lambda doc: _put(
        doc, 0.5, "matroid", "adjacency", 0, 0)),
    "boolean-right-id": ("transversal", lambda doc: _put(
        doc, True, "matroid", "adjacency", 0, 0)),
    "fractional-num-right": ("transversal", lambda doc: _put(
        doc, doc["matroid"]["num_right"] + 0.7, "matroid", "num_right")),
    "record-is-a-list": ("record", lambda rec: [rec]),
    "boolean-record-version": ("record", lambda rec: {**rec, "version": True}),
    "fractional-record-version": ("record", lambda rec: {**rec, "version": 1.0}),
    "string-epsilon": ("record", lambda rec: {**rec, "epsilon": "0.2"}),
    "list-counters": ("record", lambda rec: {**rec, "counters": list(rec["counters"])}),
    "negative-counter": ("record", lambda rec: _put(rec, -5, "counters", "phase2_f_queries")),
    "negative-span-counter": ("record", lambda rec: _put(rec, -1, "counters", "dt_spanned")),
    "boolean-element": ("record", lambda rec: {
        **rec, "solution": [True] + rec["solution"][1:]}),
    # a coverage value ignores the repeats, so the value check alone passes
    "repeated-element": ("record", lambda rec: {
        **rec, "solution": rec["solution"] + [rec["solution"][0]] * 5}),
    # a full record's budget checks read its epsilon and counters
    "full-record-without-counters": ("record", lambda rec: {
        k: v for k, v in rec.items() if k != "counters"}),
    "full-record-without-epsilon": ("record", lambda rec: {
        k: v for k, v in rec.items() if k != "epsilon"}),
    "full-record-without-a-budget-counter": ("record", lambda rec: {
        **rec, "counters": {k: v for k, v in rec["counters"].items() if k != "dt_spanned"}}),
}


@pytest.mark.parametrize(
    "command, damage",
    [(cmd, name) for name, (kind, _) in DAMAGE.items()
     for cmd in (("verify",) if kind == "record" else ("run", "verify"))],
)
def test_malformed_files_give_corrupt_errors(tmp_path, capsys, command, damage) -> None:
    kind, mutate = DAMAGE[damage]
    matroid = "laminar" if kind == "record" else kind
    path = _gen(tmp_path, "--matroid", matroid)
    out = str(tmp_path / "res.json")
    _run(path, out)
    files = {"instance": path, "record": out}
    target = "record" if kind == "record" else "instance"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(open(files[target]).read()))))
    files[target] = str(bad)
    capsys.readouterr()
    if command == "run":
        argv = ["run", files["instance"], "-o", str(tmp_path / "again.json")]
    else:
        argv = ["verify", files["instance"], files["record"]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: corrupt ")


@pytest.mark.parametrize("objective", sorted(NUMBER_FIELDS))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
def test_non_finite_objective_data_is_a_corrupt_instance(tmp_path, capsys, objective, bad) -> None:
    # and JSON true, which numpy would read as 1.0
    path = _gen(tmp_path, "--function", objective, "--n", "8")
    doc = json.loads(open(path).read())
    field = doc["objective"][NUMBER_FIELDS[objective]]
    if objective == "facility":
        field[3][5] = bad
    else:
        field[1] = bad
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))  # json writes NaN and Infinity
    out = str(tmp_path / "res.json")
    capsys.readouterr()
    assert main(["run", str(bad_path), "--epsilon", "0.2", "--seed", "11", "-o", out]) == 1
    assert capsys.readouterr().err.startswith("error: corrupt instance file: ")
    _run(path, out)
    capsys.readouterr()
    assert main(["verify", str(bad_path), out]) == 1
    assert capsys.readouterr().err.startswith("error: corrupt instance file: ")


@pytest.mark.parametrize("objective, reshape", [
    # a scalar in place of the list of universe weights
    pytest.param("coverage", lambda weights: weights[0], id="scalar-universe-weights"),
    # each weight in a one-element list: as many entries as elements
    pytest.param("additive", lambda weights: [[w] for w in weights], id="nested-weights"),
])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_objective_numbers_not_a_flat_list_are_a_corrupt_instance(
    tmp_path, capsys, objective, reshape, command
) -> None:
    path = _gen(tmp_path, "--function", objective, "--n", "8")
    out = str(tmp_path / "res.json")
    _run(path, out)
    doc = json.loads(open(path).read())
    name = NUMBER_FIELDS[objective]
    doc["objective"][name] = reshape(doc["objective"][name])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    capsys.readouterr()
    if command == "run":
        argv = ["run", str(bad_path), "-o", str(tmp_path / "again.json")]
    else:
        argv = ["verify", str(bad_path), out]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: corrupt instance file: ")


@pytest.mark.parametrize("objective, respell", [
    pytest.param("coverage", lambda field: field.__setitem__(0, "1.5"), id="coverage"),
    pytest.param("additive", lambda field: field.__setitem__(1, "  2 "), id="additive"),
    pytest.param("facility", lambda field: field[0].__setitem__(0, "0.25"), id="facility"),
])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_objective_numbers_given_as_strings_are_a_corrupt_instance(
    tmp_path, capsys, objective, respell, command
) -> None:
    # numpy would read each string as the number it spells
    path = _gen(tmp_path, "--function", objective, "--n", "8")
    out = str(tmp_path / "res.json")
    _run(path, out)
    doc = json.loads(open(path).read())
    respell(doc["objective"][NUMBER_FIELDS[objective]])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    capsys.readouterr()
    if command == "run":
        argv = ["run", str(bad_path), "-o", str(tmp_path / "again.json")]
    else:
        argv = ["verify", str(bad_path), out]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: corrupt instance file: ")


@pytest.mark.parametrize("objective", sorted(NUMBER_FIELDS))
def test_run_converts_the_objective_once(tmp_path, monkeypatch, objective) -> None:
    # the oracle that checks the payload and the pipeline's share its arrays
    path = _gen(tmp_path, "--function", objective)
    names: list[str] = []
    genuine = objectives._nonnegative

    def convert(values, name, *rest):
        names.append(name)
        return genuine(values, name, *rest)

    monkeypatch.setattr(objectives, "_nonnegative", convert)
    _run(path, str(tmp_path / "res.json"))
    assert len(names) == 1


def test_usage_errors_exit_two() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("objective", sorted(NUMBER_FIELDS))
@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_objective_sized_unlike_its_matroid_is_a_corrupt_instance(
    tmp_path, capsys, objective, change, command
) -> None:
    # one entry per element: covers, similarity rows or weights, one too few
    # or one too many for the matroid's 8 elements
    path = _gen(tmp_path, "--function", objective, "--n", "8")
    out = str(tmp_path / "res.json")
    _run(path, out)
    doc = json.loads(open(path).read())
    field = doc["objective"][ELEMENT_FIELDS[objective]]
    assert len(field) == 8
    if change == "short":
        field.pop()
    else:
        field.append(field[0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    if command == "run":
        argv = ["run", str(bad), "-o", str(tmp_path / "again.json")]
    else:
        argv = ["verify", str(bad), out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: corrupt instance file: ")
    assert "verify: pass" not in captured.out
    assert not (tmp_path / "again.json").exists()


def _refuse_instance(tmp_path, capsys, command: str, doc: dict, out: str) -> str:
    """Write ``doc`` as an instance file, put it to ``command`` (``run``, or
    ``verify`` against the record ``out``), check that it exits 1 and writes
    nothing, and return its error output."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    if command == "run":
        argv = ["run", str(bad), "-o", str(tmp_path / "again.json")]
    else:
        argv = ["verify", str(bad), out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not (tmp_path / "again.json").exists()
    return captured.err


@pytest.mark.parametrize("section, kind", [("matroid", "laminar"), ("objective", "additive")])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_kind_that_is_not_a_string_is_named_in_the_error(
    tmp_path, capsys, section, kind, command
) -> None:
    path = _gen(tmp_path, "--function", "additive")
    out = str(tmp_path / "res.json")
    _run(path, out)
    doc = json.loads(open(path).read())
    doc[section]["kind"] = [kind]
    err = _refuse_instance(tmp_path, capsys, command, doc, out)
    assert err == f"error: corrupt instance file: unknown {section} kind: ['{kind}']\n"


def _drop(field: str):
    return lambda matroid: matroid.pop(field)


@pytest.mark.parametrize("kind, damage", [
    *(pytest.param(kind, _drop(field), id=f"{kind}-without-{field}") for kind, field in [
        ("laminar", "parents"), ("laminar", "capacities"), ("laminar", "element_nodes"),
        ("graphic", "num_vertices"), ("graphic", "edges"),
        ("transversal", "num_right"), ("transversal", "adjacency"),
    ]),
    # laminar ``parents: null`` is a DAMAGE case above
    pytest.param("graphic", lambda m: m["edges"][0].append(0), id="three-endpoint-edge"),
])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_matroid_field_missing_or_misshapen_is_a_corrupt_instance(
    tmp_path, capsys, kind, damage, command
) -> None:
    path = _gen(tmp_path, "--matroid", kind)
    out = str(tmp_path / "res.json")
    _run(path, out)
    doc = json.loads(open(path).read())
    damage(doc["matroid"])
    err = _refuse_instance(tmp_path, capsys, command, doc, out)
    assert err.startswith("error: corrupt instance file: ")


@pytest.mark.parametrize("kind", ["laminar", "graphic", "transversal"])
def test_a_matroid_field_no_kind_reads_is_ignored(tmp_path, capsys, kind) -> None:
    path = _gen(tmp_path, "--matroid", kind)
    doc = json.loads(open(path).read())
    doc["matroid"]["colour"] = "blue"
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(doc))
    plain, padded = str(tmp_path / "plain.json"), str(tmp_path / "padded.json")
    _run(path, plain)
    _run(str(extra), padded)
    records = [json.loads(open(out).read()) for out in (plain, padded)]
    for record in records:
        record.pop("wall_time_s")
    assert records[0] == records[1]
    assert main(["verify", str(extra), padded]) == 0
    assert capsys.readouterr().out.endswith("verify: pass\n")


def _verify_report(capsys, instance: str, record: str) -> list[str]:
    capsys.readouterr()
    assert main(["verify", instance, record]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("kind, budgets", [
    # coverage at rank > 0: graphic spans, transversal batch inserts and deletes
    ("graphic", [
        "phase-1 query budget: ok (0 <= 1280)",
        "phase-2 query budget: ok (13432 <= 3260403)",
        "incremental oracle budget: ok (41 <= 360)",
        "batch-insert budget: ok (0 <= 78)",
        "delete budget: ok (0 <= 45)",
        "span budget: ok (9 <= 45)",
        "query total: ok (13464 == 13463 + 1)",
    ]),
    ("transversal", [
        "phase-1 query budget: ok (0 <= 1328)",
        "phase-2 query budget: ok (17082 <= 3260403)",
        "incremental oracle budget: ok (0 <= 360)",
        "batch-insert budget: ok (31 <= 83)",
        "delete budget: ok (6 <= 45)",
        "span budget: ok (0 <= 45)",
        "query total: ok (17114 == 17113 + 1)",
    ]),
], ids=["graphic", "transversal"])
def test_verify_reports_every_budget_in_order(tmp_path, capsys, kind, budgets) -> None:
    path = _gen(tmp_path, "--matroid", kind)
    out = str(tmp_path / "res.json")
    _run(path, out)
    value = json.loads(open(out).read())["value"]
    assert _verify_report(capsys, path, out) == [
        "format version: ok (1)",
        "element range: ok",
        "feasibility: ok",
        f"value: ok (recomputed {value!r} vs {value!r})",
        *budgets,
        "verify: pass",
    ]


def test_verify_report_at_rank_zero_has_no_phase_1_line(tmp_path, capsys) -> None:
    # a root of capacity 0 over two leaves: no element fits
    instance = Instance(
        matroid=LaminarMatroid(parents=[-1, 0, 0], capacities=[0, 1, 1], element_nodes=[1, 2]),
        objective={"kind": "additive", "weights": [1.0, 2.0]},
    )
    assert instance.matroid.rank() == 0
    path, out = tmp_path / "zero.json", str(tmp_path / "res.json")
    path.write_text(instance.to_json())
    _run(str(path), out)
    assert _verify_report(capsys, str(path), out) == [
        "format version: ok (1)",
        "element range: ok",
        "feasibility: ok",
        "value: ok (recomputed 0.0 vs 0.0)",
        "phase-2 query budget: ok (0 <= 265095)",
        "incremental oracle budget: ok (0 <= 80)",
        "batch-insert budget: ok (0 <= 40)",
        "delete budget: ok (0 <= 10)",
        "span budget: ok (0 <= 10)",
        "query total: ok (6 == 5 + 1)",
        "verify: pass",
    ]


@pytest.mark.parametrize("counter", cli.BUDGET_COUNTERS)
def test_a_full_record_without_a_budget_counter_is_corrupt(tmp_path, capsys, counter) -> None:
    path = _gen(tmp_path)
    out = tmp_path / "res.json"
    _run(path, str(out))
    record = json.loads(out.read_text())
    del record["counters"][counter]
    out.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["verify", path, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: corrupt result record: a full record must carry the counters {counter}\n"
    )
