import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from banditlp.cli import main
from banditlp.bench import GeneratorSpec, as_concave, as_lagrangean, gen_integrality_gap, gen_random_suite
from banditlp.relaxations import solve_relaxation
from banditlp.statespace import BanditInstance, build_beta_bernoulli_arm, instance_to_json, save_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_validate_solve_plan_run_oracle(tmp_path, capsys):
    path = str(tmp_path / "gap4.json")
    code, out = run_cli(capsys, "gen", "--family", "integrality-gap", "--n", "4", "--seed", "0", "-o", path)
    assert code == 0
    assert json.loads(out)["arms"] == 4

    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["valid"] is True

    dump = str(tmp_path / "gap4.lp")
    code, out = run_cli(capsys, "solve", path, "--dump-lp", dump)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert abs(doc["gamma_star"] - 1.0) < 1e-6
    assert doc["cuts"] == 2 and 0.0 <= doc["duality_gap"] <= 1e-9  # the gap-4 decomposition's path
    assert doc["master_pivots"] == 2 and doc["master_bland_pivots"] == 0  # one pivot per cut
    sol = solve_relaxation(gen_integrality_gap(4))
    stats = (sol.cuts, sol.duality_gap, sol.master_pivots, sol.master_bland_pivots)
    # the same solve, seen from the library
    assert stats == (doc["cuts"], doc["duality_gap"], doc["master_pivots"], doc["master_bland_pivots"])
    text = open(dump).read()
    assert text.startswith("Maximize") and "Subject To" in text
    # the values are keyed by the dumped LP's variable names
    bounds = text[text.index("Bounds") :].splitlines()[1:-1]
    assert sorted(doc["values"]) == sorted(line.split()[2] for line in bounds)

    code, out = run_cli(capsys, "plan", path)
    assert code == 0
    doc = json.loads(out)
    assert [row["arm"] for row in doc["order"]] == ["a0", "a1", "a2", "a3"]
    assert doc["stats"][0]["P"] == pytest.approx(0.25, abs=1e-6)

    code, out = run_cli(capsys, "run", path, "--seed", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["summary"] is True
    assert lines[-1]["cost"] <= 4

    code, out = run_cli(capsys, "run", path, "--seed", "3", "--reps", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["reps"] == 200 and doc["violations"] == []

    code, out = run_cli(capsys, "oracle", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["opt"] - 175 / 256) < 1e-9
    assert abs(doc["ratio"] - 256 / 175) < 1e-6


def test_validate_flags_corruption(tmp_path, capsys):
    from banditlp.bench import corrupt_instance

    inst = corrupt_instance(gen_integrality_gap(2), seed=1)
    path = str(tmp_path / "bad.json")
    save_instance(inst, path)
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["diagnostics"]


def test_lagrangean_variant_run(tmp_path, capsys):
    inst = as_lagrangean(gen_integrality_gap(2))
    path = str(tmp_path / "lag.json")
    save_instance(inst, path)
    code, out = run_cli(capsys, "run", path, "--seed", "1")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["variant"] == "lagrangean"


def test_suite_and_report_round_trip(tmp_path, capsys):
    spec = {
        "family": "random-two-level",
        "count": 3,
        "seed": 5,
        "budget_cap": 5,
        "variant": "budgeted",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "suite", "--spec", str(spec_path), "-o", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["all_ok"] is True
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:  # every row carries its solve's statistics
        assert row["cuts"] >= 1 and row["master_pivots"] >= 1
        assert abs(row["duality_gap"]) <= 1e-9 * (1.0 + abs(row["gamma_star"]))  # may round below 0

    code, report_csv = run_cli(capsys, "report", str(out_path), "--format", "csv")
    assert code == 0
    assert len(report_csv.strip().splitlines()) == 4

    code, out = run_cli(capsys, "suite", "--spec", str(spec_path), "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "instance,gamma_star,opt,value,cost,bound,lp_ratio,ok,flags,cuts,master_pivots,duality_gap"
    assert [int(r.split(",")[9]) for r in rows] == [r["cuts"] for r in doc["rows"]]
    # one writer: the saved report's CSV is the suite's, byte for byte (the
    # report used to add opt_ratio and print ok as True and no flags as [])
    assert report_csv == out


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"family": "random-two-level", "budgetcap": 1}, "budgetcap"),
        ({"family": "random-two-level", "options": {"aplha": 4}}, "aplha"),
        ({"family": "random-two-level", "options": {"rul": "violate"}}, "rul"),
    ],
)
def test_suite_rejects_unknown_keys(tmp_path, capsys, spec, key):
    # misspelt keys used to be dropped: the suite ran at its defaults and
    # reported all_ok
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"count": 2, "seed": 5, **spec}))
    code, out = run_cli(capsys, "suite", "--spec", str(spec_path))
    assert code == 2
    assert repr(key) in json.loads(out)["error"]


def test_library_errors_are_one_json_object(tmp_path, capsys):
    path = str(tmp_path / "concave.json")
    save_instance(as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=0.25), path)
    code, out = run_cli(capsys, "oracle", path)
    assert code == 2
    assert set(json.loads(out)) == {"error"}
    lag = str(tmp_path / "lag.json")
    save_instance(as_lagrangean(gen_integrality_gap(2)), lag)
    code, out = run_cli(capsys, "run", lag, "--seed", "1", "--reps", "10", "--rule", "violate")
    assert code == 2
    assert "violate" in json.loads(out)["error"]
    code, out = run_cli(capsys, "solve", lag, "--variant", "concave")
    assert code == 2
    assert "cannot reinterpret" in json.loads(out)["error"]


def test_oracle_guard_is_one_json_object(tmp_path, capsys):
    # an instance over the oracle's guard used to end in a traceback
    path = str(tmp_path / "gap6.json")
    save_instance(gen_integrality_gap(6), path)
    code, out = run_cli(capsys, "oracle", path, "--limit", "3")
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert "exceeds the limit 3" in doc["error"]


def test_solver_errors_are_one_json_object(tmp_path, capsys, monkeypatch):
    # an LPSolverError (a RuntimeError) from the solve used to end in a
    # traceback: the gap-4 decomposition needs 2 cuts, and 1 is allowed
    import banditlp.relaxations as relaxations

    path = str(tmp_path / "gap4.json")
    save_instance(gen_integrality_gap(4), path)
    monkeypatch.setattr(relaxations, "CUT_LIMIT", 1)
    code, out = run_cli(capsys, "solve", path)
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert "still open after 1 cuts" in doc["error"]


def test_concave_instance_file_is_checked_on_load(tmp_path, capsys):
    # a zero capacity and zero sigmas used to load and then divide by zero
    path = str(tmp_path / "conc.json")
    save_instance(as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=0.5), path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["objective"]["B"] = 0
    doc["objective"]["sigmas"] = {arm: 0 for arm in doc["objective"]["sigmas"]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run_cli(capsys, "run", path, "--seed", "0")
    assert code == 2
    assert json.loads(out) == {"error": "capacity must be positive"}


def test_a_negative_budget_is_one_json_error(tmp_path, capsys):
    # the solve rejects a budget below 0 before its first cut, with the
    # objective rule's message
    path = str(tmp_path / "negative.json")
    save_instance(dataclasses.replace(gen_integrality_gap(2), budget=-1.0), path)
    code, out = run_cli(capsys, "solve", path)
    assert code == 2
    assert json.loads(out) == {"error": "budgeted objective requires a finite budget >= 0, got -1.0"}


def test_validate_and_solve_say_the_same_of_a_null_budget(tmp_path, capsys):
    # validate reported "budgeted objective requires a finite budget >= 0,
    # got None" where solve answered "budgeted relaxation needs a finite
    # budget": the objective rule is now written once
    path = str(tmp_path / "null.json")
    doc = instance_to_json(gen_integrality_gap(2))
    doc["budget"] = None
    with open(path, "w") as fh:
        json.dump(doc, fh)
    message = "budgeted objective requires a finite budget >= 0, got None"
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert [d["message"] for d in json.loads(out)["diagnostics"]] == [message]
    for command in ("solve", "plan"):
        code, out = run_cli(capsys, command, path)
        assert (code, json.loads(out)) == (2, {"error": message})


def test_duplicate_arm_ids_are_one_json_error(tmp_path, capsys):
    # two arms under one id solved to gamma* 0.7333 with 9 (arm, state) keys
    # for their 12 states, and validate passed them; the loader now refuses
    # them, as BanditInstance does
    arms = tuple(build_beta_bernoulli_arm(a, 1, 2, play_cost=1, arm_id=i) for a, i in ((1, "a"), (2, "b")))
    doc = instance_to_json(BanditInstance(arms, budget=2.0))
    doc["arms"][1]["id"] = "a"
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "validate"):
        code, out = run_cli(capsys, command, str(path))
        assert code == 2
        assert json.loads(out) == {"error": "duplicate arm id 'a'"}


def test_a_negative_cost_is_one_json_error_from_the_oracle(tmp_path, capsys):
    # the oracle took a play cost of -0.5 and reported OPT 1.25, above every
    # reward
    lag = as_lagrangean(gen_integrality_gap(2))
    arm = lag.arms[0]
    states = {sid: dataclasses.replace(s, play_cost=-0.5) for sid, s in arm.states.items()}
    arms = (dataclasses.replace(arm, states=states),) + lag.arms[1:]
    path = str(tmp_path / "negative-cost.json")
    save_instance(dataclasses.replace(lag, arms=arms), path)
    code, out = run_cli(capsys, "oracle", path)
    assert code == 2
    assert json.loads(out) == {
        "error": f"the DP oracle requires play and switch costs >= 0; arm {arm.arm_id!r} has one below 0"
    }


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"count": "3"}, "suite spec: count: expected an integer, got '3'"),
        ({"count": True}, "suite spec: count: expected an integer, got True"),
        ({"options": {"alpha": "x"}}, "suite options: alpha: expected a finite number, got 'x'"),
        ({"variant": "concave", "B": "1"}, "suite spec: B: expected a finite number, got '1'"),
    ],
)
def test_a_suite_spec_value_of_the_wrong_type_is_one_json_error(tmp_path, capsys, spec, message):
    # the strings ended in TypeError tracebacks ("'<' not supported between
    # instances of 'str' and 'int'"), and a count of true ran one instance
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"family": "random-beta", "count": 3, "seed": 4, **spec}))
    code, out = run_cli(capsys, "suite", "--spec", str(spec_path))
    assert code == 2
    assert json.loads(out) == {"error": message}


def test_a_bicriteria_alpha_that_is_not_a_finite_number_of_at_least_one_is_one_json_error(tmp_path, capsys):
    # --alpha nan made a plan that explored nothing: mean 0.5 and cost 0.0,
    # the prior best, where alpha 1 reports a mean of 0.64
    path = str(tmp_path / "gap2.json")
    save_instance(gen_integrality_gap(2), path)
    for alpha in ("nan", "inf", "0.5"):
        code, out = run_cli(capsys, "run", path, "--seed", "1", "--reps", "50", "--alpha", alpha)
        assert code == 2
        message = f"bicriteria factor alpha must be a finite number >= 1, got {float(alpha)!r}"
        assert json.loads(out) == {"error": message}
    # validate reports an instance alpha that plan and run would refuse
    doc = instance_to_json(gen_integrality_gap(2))
    doc["objective"]["alpha"] = 0.5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert [d["message"] for d in json.loads(out)["diagnostics"]] == [
        "bicriteria factor alpha must be a finite number >= 1, got 0.5"
    ]
    code, out = run_cli(capsys, "plan", path)
    assert (code, json.loads(out)) == (2, {"error": "bicriteria factor alpha must be a finite number >= 1, got 0.5"})


def test_suite_runs_a_fractional_bicriteria_budget(tmp_path, capsys):
    # alpha * C is fractional for every odd budget: the exact pass needs
    # integer costs only
    spec_path = tmp_path / "spec.json"
    spec = {"family": "random-two-level", "count": 4, "seed": 5, "budget_cap": 5, "options": {"alpha": 1.5}}
    spec_path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "suite", "--spec", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["all_ok"] is True and len(doc["rows"]) == 4


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("solve", lambda d: d["arms"][0].pop("root"), "arm 'a0': missing key 'root'"),
        ("plan", lambda d: d["arms"][1]["states"][0].pop("reward"), "arm 'a1' state 'root': missing key 'reward'"),
        ("run", lambda d: d["objective"].pop("B"), "concave objective: missing key 'B'"),
        ("oracle", lambda d: d["arms"][0].pop("id"), "arm 0: missing key 'id'"),
        ("validate", lambda d: d["arms"][0].pop("root"), "arm 'a0': missing key 'root'"),
    ],
)
def test_a_missing_key_is_one_json_error(tmp_path, capsys, command, edit, message):
    # a KeyError traceback and exit 1 used to end every one of these; for
    # validate, exit 1 also means an invalid instance
    path = tmp_path / "inst.json"
    inst = gen_integrality_gap(2)
    save_instance(as_concave(inst, capacity=1.0, epsilon=0.5) if command == "run" else inst, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, str(path), *(["--seed", "0"] if command == "run" else []))
    assert code == 2
    assert json.loads(out) == {"error": message}


def test_a_repeated_state_id_is_one_json_error(tmp_path, capsys):
    # the second state "v0" used to replace the first, and validate reported
    # at most a martingale diagnostic at the root
    path = tmp_path / "inst.json"
    save_instance(gen_integrality_gap(2), str(path))
    doc = json.loads(path.read_text())
    states = doc["arms"][0]["states"]
    states.append({**states[1], "reward": 0.5})
    path.write_text(json.dumps(doc))
    for command in ("validate", "solve"):
        code, out = run_cli(capsys, command, str(path))
        assert code == 2
        assert json.loads(out) == {"error": f"arm {doc['arms'][0]['id']!r}: duplicate state id {states[1]['id']!r}"}


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("solve", lambda d: d.__setitem__("objective", "budgeted"), "instance: objective: expected an object, got 'budgeted'"),
        ("solve", lambda d: d.__setitem__("arms", 5), "instance: arms: expected a list, got 5"),
        ("plan", lambda d: d["arms"][0]["states"][1].__setitem__("reward", "high"),
         "arm 'a0' state 'v0': reward: expected a finite number, got 'high'"),
        ("oracle", lambda d: d["arms"][0]["states"][0].__setitem__("reward", float("nan")),
         "arm 'a0' state 'root': reward: expected a finite number, got nan"),
        ("run", lambda d: d["arms"][0]["states"][0]["children"][0].__setitem__("prob", float("nan")),
         "arm 'a0' state 'root': prob to 'v0': expected a finite number, got nan"),
        ("validate", lambda d: d["arms"][0]["states"][0].__setitem__("reward", float("nan")),
         "arm 'a0' state 'root': reward: expected a finite number, got nan"),
    ],
)
def test_a_value_of_the_wrong_type_is_one_json_error(tmp_path, capsys, command, edit, message):
    # the first two ended in AttributeError and TypeError tracebacks, and
    # "high" in one that named no arm; a NaN token loaded: validate called
    # the file valid, oracle printed "opt": NaN, and run --reps 100 a mean
    # of 1.0 (the clean instance: gamma* 1, OPT 0.75)
    path = tmp_path / "inst.json"
    save_instance(gen_integrality_gap(2), str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))  # NaN as the token json reads back
    code, out = run_cli(capsys, command, str(path), *(["--seed", "1", "--reps", "100"] if command == "run" else []))
    assert code == 2
    assert json.loads(out) == {"error": message}


def _refuse(token):
    raise ValueError(f"{token} is not a JSON number")


def _paths(node, path=()):
    """Every position in a JSON document, the document itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


_DOCUMENTS = [
    instance_to_json(inst)
    for inst in (
        gen_integrality_gap(2),
        as_lagrangean(gen_integrality_gap(2)),
        as_concave(gen_integrality_gap(2), capacity=1.0, epsilon=1.0),
        gen_random_suite(GeneratorSpec(family="random-beta", count=1, seed=3, max_arms=2, budget_cap=3))[0],
    )
]
_WRONG = ["high", True, None, [], {}, 5, -1, 0, float("nan"), float("inf"), float("-inf")]


@st.composite
def _mutated(draw):
    """A generated instance document with one key or item dropped, one value
    replaced by a wrong type, a number, NaN or +-Infinity, or one transition
    probability made negative."""
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    paths = list(_paths(doc))
    how = draw(st.sampled_from(["drop", "replace", "negative probability"]))
    if how == "drop":
        path, value = draw(st.sampled_from(paths[1:])), None
    elif how == "replace":
        path, value = draw(st.sampled_from(paths)), draw(st.sampled_from(_WRONG))
    else:
        path, value = draw(st.sampled_from([p for p in paths if p[-1:] == ("prob",)])), -0.5
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if how == "drop":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@settings(max_examples=80, deadline=None, database=None)
@seed(2121)
@given(_mutated())
def test_a_mutated_instance_file_never_ends_in_a_traceback(doc):
    # every command succeeds, or validate reports diagnostics (exit 1), or
    # one JSON error ends it (exit 2); its output is JSON (JSON lines for a
    # trace) with no NaN or Infinity
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command, *extra in (["validate"], ["solve"], ["plan"], ["run", "--seed", "1"], ["oracle"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, path, *extra])
            assert code in ((0, 1, 2) if command == "validate" else (0, 2))
            lines = out.getvalue().splitlines() if command == "run" and code == 0 else [out.getvalue()]
            for line in lines:
                json.loads(line, parse_constant=_refuse)


@pytest.mark.parametrize("options", [{"tolerance": 1.0}, {"use_oracle": False}, {"oracle_limit": 5}])
def test_a_suite_spec_cannot_loosen_its_gates(tmp_path, capsys, options):
    # a tolerance of 1.0 lowered every bound below 0 and use_oracle false
    # skipped the OPT <= gamma* check, and the suite reported all_ok; the
    # oracle's limit is the constant bench.SUITE_ORACLE_LIMIT
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"family": "random-beta", "count": 3, "seed": 4, "options": options}))
    code, out = run_cli(capsys, "suite", "--spec", str(spec_path))
    assert code == 2
    (key,) = options
    assert json.loads(out)["error"].startswith(f"unknown key {key!r} in the suite options")


def test_a_number_json_cannot_hold_is_one_json_error(monkeypatch, tmp_path, capsys):
    # json.dump writes NaN, which no JSON reader accepts; nothing is printed
    # before the error
    path = tmp_path / "inst.json"
    save_instance(gen_integrality_gap(2), str(path))
    solution = dataclasses.replace(solve_relaxation(gen_integrality_gap(2)), gamma_star=float("nan"))
    monkeypatch.setattr("banditlp.relaxations.solve_relaxation", lambda instance: solution)
    code, out = run_cli(capsys, "oracle", str(path))
    assert code == 2
    (error,) = json.loads(out).values()
    assert error.startswith("Out of range float values are not JSON compliant")
