"""The command-line interface: exit codes, report schema, determinism."""
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import koszulab
from koszulab import partition
from koszulab.algebra import builtin_height1, dataset_to_json, save_dataset
from koszulab.cli import (EXIT_IO, EXIT_MATH, EXIT_PASS,
                          EXIT_USAGE, REPORT_SCHEMA, fingerprint, main, run)
from koszulab.synthetic import perturb_pairing, synthetic_height1_dataset

from test_golden import sym2_dataset


@pytest.fixture
def h1_path(tmp_path):
    path = tmp_path / "h1.json"
    save_dataset(builtin_height1(3, 2, 4), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if "--json" in argv else out


def test_gen_height1_and_bar(tmp_path, capsys):
    out = str(tmp_path / "ds.json")
    code = main(["gen-height1", "--p", "2", "--N", "2", "--kmax", "4",
                 "--out", out])
    assert code == EXIT_PASS
    capsys.readouterr()
    code, doc = run_json(capsys, ["bar", out, "--weight", "3", "--json"])
    assert code == EXIT_PASS
    assert doc["schema"] == REPORT_SCHEMA
    bar = next(c for c in doc["checks"] if c["name"] == "bar-complex")
    assert bar["payload"]["ranks"] == [0, 1, 2, 1]
    assert bar["payload"]["profile"] == {
        str(d): {"free_rank": 0, "torsion_exponents": []} for d in range(4)}


def test_bar_weight1_homology(h1_path, capsys):
    code, doc = run_json(capsys, ["bar", h1_path, "--weight", "1", "--json"])
    assert code == EXIT_PASS
    bar = next(c for c in doc["checks"] if c["name"] == "bar-complex")
    assert bar["payload"]["profile"]["1"]["free_rank"] == 1


def test_torsion_reports_carry_truncation_level(h1_path, capsys):
    code, doc = run_json(capsys, ["bar", h1_path, "--weight", "2", "--json"])
    bar = next(c for c in doc["checks"] if c["name"] == "bar-complex")
    assert bar["payload"]["N"] == 2


def test_invalid_weight_is_usage_error(h1_path, capsys):
    assert main(["bar", h1_path, "--weight", "99"]) == EXIT_USAGE


def test_missing_file_is_io_error(capsys):
    assert main(["bar", "/nonexistent/ds.json", "--weight", "1"]) == EXIT_IO


def test_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["bar", str(path), "--weight", "1"]) == EXIT_IO


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_non_prime_p_is_reported_without_traceback(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    doc["p"] = 4
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(doc))
    assert main(["koszul", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "top level" in err and "p" in err
    assert "Traceback" not in err


def check_leaf_rejected(tmp_path, capsys, doc, path_text):
    """The dataset fails to load with exit 1 and a message naming the JSON
    path of the bad leaf, without a traceback."""
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(doc))
    assert main(["koszul", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert path_text in err and "expected an integer" in err
    assert "Traceback" not in err


def test_string_matrix_entry_is_reported_with_path(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    doc["algebra"]["mult"][0]["matrix"] = [["1"]]
    check_leaf_rejected(tmp_path, capsys, doc, "algebra.mult[k=1,l=1].matrix[0][0]")


def test_float_matrix_entry_is_reported_with_path(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    doc["modules"][1]["action"][0]["matrix"] = [[1.5]]
    name = doc["modules"][1]["name"]
    check_leaf_rejected(tmp_path, capsys, doc,
                        f"modules[{name!r}].action[k=1].matrix[0][0]")


def test_bool_structure_constant_is_reported_with_path(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    doc["coefficient_algebra"]["mult_constants"] = [[[True]]]
    check_leaf_rejected(tmp_path, capsys, doc,
                        "coefficient_algebra.mult_constants[0][0][0]")


def test_non_integer_unit_is_reported_with_path(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    doc["coefficient_algebra"]["unit"] = ["1"]
    check_leaf_rejected(tmp_path, capsys, doc, "coefficient_algebra.unit[0]")


DROP = object()


@pytest.mark.parametrize("keys, value, path_text", [
    pytest.param(("coefficient_algebra", "rank"), 1.0,
                 "coefficient_algebra: field 'rank'", id="float-coeff-rank"),
    pytest.param(("algebra", "max_weight"), "3", "algebra: field 'max_weight'",
                 id="string-max-weight"),
    pytest.param(("N",), "2", "top level: field 'N'", id="string-N"),
    pytest.param(("p",), 3.0, "top level: field 'p'", id="float-p"),
    pytest.param(("modules", 0, "rank"), "1", "modules['triv']: field 'rank'",
                 id="string-module-rank"),
    pytest.param(("subgroup_package", "u1", 0, "k1"), DROP,
                 "subgroup_package.u1[0]: missing field 'k1'", id="missing-u1-k1"),
    pytest.param(("subgroup_package", "orders", 0, "algebra"), DROP,
                 "subgroup_package.orders[k=1]: missing field 'algebra'",
                 id="missing-order-algebra"),
    pytest.param(("algebra", "components"), 5, "algebra: field 'components'",
                 id="int-components"),
    pytest.param(("algebra", "components", 0, "k"), 1.0,
                 "algebra.components[0]: field 'k'", id="float-component-k"),
    pytest.param(("modules", 0, "rank"), -1, "modules['triv']: field 'rank'",
                 id="negative-module-rank"),
    pytest.param(("coefficient_algebra", "rank"), -1,
                 "coefficient_algebra: field 'rank'", id="negative-coeff-rank"),
    pytest.param(("algebra", "components", 0, "rank"), -1,
                 "algebra.components[k=1]: field 'rank'",
                 id="negative-component-rank"),
    pytest.param(("subgroup_package", "orders", 0, "algebra", "rank"), -1,
                 "subgroup_package.orders[k=1].algebra: field 'rank'",
                 id="negative-order-rank"),
    pytest.param(("subgroup_package", "shift", 0, "k"), 0,
                 "subgroup_package.shift[k=0]: k must be at least 1",
                 id="zero-shift-k"),
    pytest.param(("subgroup_package", "shift", 0, "k"), -3,
                 "subgroup_package.shift[k=-3]: k must be at least 1",
                 id="negative-shift-k"),
])
def test_bad_scalar_field_is_reported_with_path(tmp_path, capsys, keys, value,
                                                path_text):
    """A scalar or structural field of the wrong JSON type, or a missing
    one, fails the load with exit 1 and names its JSON path."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    *outer, last = keys
    target = doc
    for key in outer:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["koszul", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert path_text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("keys, path_text", [
    pytest.param(("algebra", "components"), "algebra.components[k=1]", id="component"),
    pytest.param(("algebra", "mult"), "algebra.mult[k=1,l=1]", id="mult"),
    pytest.param(("modules",), "modules['triv']", id="module"),
    pytest.param(("modules", 1, "action"), "modules['sphere'].action[k=1]",
                 id="module-action"),
    pytest.param(("subgroup_package", "orders"), "subgroup_package.orders[k=1]",
                 id="order"),
    pytest.param(("subgroup_package", "u1"), "subgroup_package.u1[k1=1,k2=1]",
                 id="u1"),
    pytest.param(("subgroup_package", "shift"), "subgroup_package.shift[k=1]",
                 id="shift"),
    pytest.param(("subgroup_package", "pairing"), "subgroup_package.pairing[k=1]",
                 id="pairing"),
])
def test_keyed_entry_given_twice_is_reported_with_path(tmp_path, capsys, keys,
                                                       path_text):
    """A keyed list entry followed by a copy of itself fails the load with
    exit 1 and names the entry's JSON path; no copy silently wins."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    entries = doc
    for key in keys:
        entries = entries[key]
    entries.insert(1, json.loads(json.dumps(entries[0])))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["koszul", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert f"{path_text}: appears more than once" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_weight", [0, -1])
def test_max_weight_below_one_is_reported_with_path(tmp_path, capsys, max_weight):
    """An algebra with no positive weight, given with no components,
    products, actions or package, fails the load with exit 1 naming
    `algebra`; no command reaches its missing weight-1 component."""
    doc = dataset_to_json(builtin_height1(3, 2, 1))
    doc["algebra"].update(max_weight=max_weight, components=[], mult=[])
    for module in doc["modules"]:
        module["action"] = []
    del doc["subgroup_package"]
    path = tmp_path / "weightless.json"
    path.write_text(json.dumps(doc))
    for cmd in ("verify", "koszul"):
        assert main([cmd, str(path), "--json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "algebra: field 'max_weight'" in err and "Traceback" not in err


@pytest.mark.parametrize("k", [0, -1])
def test_order_below_one_is_reported_with_path(tmp_path, capsys, k):
    """A subgroup algebra of order p^k with k < 1, given beside the valid
    orders, fails the load with exit 1 naming its JSON path."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    orders = doc["subgroup_package"]["orders"]
    orders.append({**orders[0], "k": k})
    path = tmp_path / "order_below_one.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == EXIT_IO
    err = capsys.readouterr().err
    assert f"subgroup_package.orders[k={k}]: k must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("generator", [[3, 1], []])
def test_maximal_ideal_generator_of_wrong_length_is_reported_with_path(
        tmp_path, capsys, generator):
    """A maximal-ideal generator must have one coordinate per basis element
    of the coefficient algebra: one of another length fails the load with
    exit 1 naming its JSON path, and never reaches the fingerprint."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    doc["coefficient_algebra"]["maximal_ideal"].append(generator)
    path = tmp_path / "long_generator.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == EXIT_IO
    captured = capsys.readouterr()
    assert "coefficient_algebra.maximal_ideal[1]" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("side", ["left_action", "right_action"])
@pytest.mark.parametrize("change", ["short", "long"])
def test_subgroup_action_list_of_wrong_length_is_reported_with_path(
        tmp_path, capsys, side, change):
    """A subgroup algebra needs one action matrix per coefficient basis
    element on each side: one matrix short or one too many fails the load
    with exit 1 naming its JSON path."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    algebra = doc["subgroup_package"]["orders"][0]["algebra"]
    actions = algebra[side]
    algebra[side] = actions[:-1] if change == "short" else actions + actions[:1]
    path = tmp_path / "action_length.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "all", "--json"]) == EXIT_IO
    captured = capsys.readouterr()
    assert ("subgroup_package.orders[k=1].algebra: need one action matrix "
            "per coefficient basis element") in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_package_without_weight1_pairing_fails_with_witness(tmp_path, capsys):
    """A package with no pairing for weight 1 fails validation naming the
    missing entry, and the duality and the shift-square checks with a
    witness, exit 3, not a traceback."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    package = doc["subgroup_package"]
    package["pairing"] = [e for e in package["pairing"] if e["k"] != 1]
    path = tmp_path / "no_pairing_1.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["verify", str(path), "--suite", "all",
                                     "--json"])
    assert code == EXIT_MATH
    valid = next(c for c in report["checks"] if c["name"] == "dataset-validation")
    assert valid["status"] == "fail"
    assert valid["payload"]["witnesses"] == \
        ["missing pairing: subgroup_package.pairing[k=1]"]
    square = next(c for c in report["checks"] if c["name"] == "suite-shift-square")
    assert square["status"] == "fail"
    assert square["payload"]["witnesses"][0] == \
        "square 1: package missing pairing for weight 1"


def test_invalid_dataset_is_math_failure(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    for ent in doc["algebra"]["mult"]:
        if (ent["k"], ent["l"]) == (1, 2):
            ent["matrix"] = [[2]]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    code = main(["koszul", str(path)])
    assert code == EXIT_MATH


def escaping_sym2(tmp_path):
    """Sym^2 saved with one off-diagonal entry of the weight-1 right action
    set to 1, an action that does not preserve C[2]."""
    doc = dataset_to_json(sym2_dataset())
    weight1 = next(c for c in doc["algebra"]["components"] if c["k"] == 1)
    weight1["right_action"][0][0][1] = 1
    path = tmp_path / "escapes.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", [["koszul"], ["ext", "--module", "triv"],
                                  ["verify", "--suite", "koszul"],
                                  ["verify", "--suite", "all"]])
def test_action_that_escapes_c_is_math_failure(tmp_path, capsys, argv):
    """On `escaping_sym2` each command that builds C[2] with its actions
    fails its computation with that witness, exit 3, not a traceback."""
    path = escaping_sym2(tmp_path)
    code, report = run_json(capsys, argv[:1] + [str(path)] + argv[1:] + ["--json"])
    assert code == EXIT_MATH
    failed = next(c for c in report["checks"] if c["name"] == "computation")
    assert failed["status"] == "fail"
    assert failed["payload"]["witness"] == \
        "coefficient action does not preserve C[2]"


def test_mic_does_not_read_the_actions_of_c(tmp_path, capsys):
    """On the same escaping dataset `mic --k 2` compares the subgroup
    complex with C[2]'s rank only: it builds no coefficient action of C[2],
    so no computation fails, and the exit is 3 for the validation failure
    alone."""
    path = escaping_sym2(tmp_path)
    code, report = run_json(capsys, ["mic", str(path), "--k", "2", "--json"])
    assert code == EXIT_MATH
    assert [(c["name"], c["status"]) for c in report["checks"]] == \
        [("dataset-validation", "fail"), ("mic-cohomology", "pass")]


def test_koszul_and_ext(h1_path, capsys):
    code, doc = run_json(capsys, ["koszul", h1_path, "--json"])
    assert code == EXIT_PASS
    k = next(c for c in doc["checks"] if c["name"] == "koszulness")
    assert k["payload"]["c_ranks"] == [1, 1, 0, 0, 0]
    code, doc = run_json(capsys, ["ext", h1_path, "--module", "triv", "--json"])
    assert code == EXIT_PASS
    e = next(c for c in doc["checks"] if c["name"] == "ext-profile")
    ranks = [e["payload"]["profile"][str(d)]["free_rank"] for d in range(5)]
    assert ranks == [1, 1, 0, 0, 0]
    code, doc = run_json(capsys, ["ext", h1_path, "--module", "sphere", "--json"])
    assert code == EXIT_PASS
    e = next(c for c in doc["checks"] if c["name"] == "ext-profile")
    assert all(v["free_rank"] == 0 and not v["torsion_exponents"]
               for v in e["payload"]["profile"].values())


def test_mic_command(h1_path, capsys):
    code, doc = run_json(capsys, ["mic", h1_path, "--k", "3", "--json"])
    assert code == EXIT_PASS
    m = next(c for c in doc["checks"] if c["name"] == "mic-cohomology")
    assert m["payload"]["ranks"] == [1, 2, 1]
    assert m["payload"]["concentrated_with_koszul_rank"] is True


def test_mic_k_beyond_max_weight_is_usage_error(tmp_path, capsys):
    """A package of higher order than the algebra's max_weight: the kmax-3
    algebra with the kmax-4 package minus pairing k=4 loads, validates and
    verifies, and mic --k 4, whose comparison needs the weight-4 Koszul
    module, is a usage error naming the bound."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    package = dataset_to_json(builtin_height1(3, 2, 4))["subgroup_package"]
    package["pairing"] = [e for e in package["pairing"] if e["k"] != 4]
    doc["subgroup_package"] = package
    path = tmp_path / "wide_package.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "all", "--json"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["mic", str(path), "--k", "3", "--json"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["mic", str(path), "--k", "4", "--json"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--k must be in 0..3" in err and "Traceback" not in err


def test_verify_all_passes(h1_path, capsys):
    code, doc = run_json(capsys, ["verify", h1_path, "--suite", "all", "--json"])
    assert code == EXIT_PASS
    names = {c["name"] for c in doc["checks"]}
    assert {"suite-koszul", "suite-mic-duality", "suite-shift-square"} <= names
    assert all(c["status"] in ("pass", "skip") for c in doc["checks"])


def test_verify_thm_square_suite_prints_witness_matrices(h1_path, capsys):
    code, doc = run_json(capsys, ["verify", h1_path, "--suite", "thm10.2",
                                  "--json"])
    assert code == EXIT_PASS
    sq = next(c for c in doc["checks"] if c["name"] == "suite-shift-square")
    first = sq["payload"]["squares"][0]
    assert first["k"] == 1
    assert first["top"] == first["bottom"] != [[0]]


def test_verify_detects_broken_duality(tmp_path, capsys):
    ds = perturb_pairing(synthetic_height1_dataset(3, 2, 4, 7), 5)
    path = tmp_path / "bad.json"
    save_dataset(ds, path)
    code, doc = run_json(capsys, ["verify", str(path), "--suite",
                                  "mic-duality", "--json"])
    assert code == EXIT_MATH
    d = next(c for c in doc["checks"] if c["name"] == "suite-mic-duality")
    assert d["status"] == "fail"
    assert d["payload"]["witnesses"]


def test_partition_command(capsys):
    code, doc = run_json(capsys, ["partition", "--n", "4", "--p", "2",
                                  "--N-trunc", "2", "--json"])
    assert code == EXIT_PASS
    c = doc["checks"][0]
    assert c["payload"]["profile"]["3"]["free_rank"] == 6
    code, _ = run_json(capsys, ["partition", "--n", "1", "--p", "3", "--json"])
    assert code == EXIT_PASS


def test_partition_guardrail(capsys):
    assert main(["partition", "--n", "9", "--p", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--force" in err


def test_partition_n8_is_refused_with_its_predicted_size(monkeypatch, capsys):
    def enumerate_nothing(n):
        raise AssertionError("n = 8 reached the chain enumeration")
    monkeypatch.setattr(partition, "id_lattice", enumerate_nothing)
    assert main(["partition", "--n", "8", "--p", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "10,270,696" in err and "--force" in err


def test_forced_partition_states_its_predicted_size_before_it_builds(
        monkeypatch, capsys):
    def enumerate_nothing(n):
        raise AssertionError("n = 8 reached the chain enumeration")
    monkeypatch.setattr(partition, "id_lattice", enumerate_nothing)
    with pytest.raises(AssertionError, match="reached the chain enumeration"):
        main(["partition", "--n", "8", "--p", "2", "--force"])
    captured = capsys.readouterr()
    assert "n = 8 predicts 10,270,696 nondegenerate simplices" in captured.err
    assert captured.out == ""


def test_forced_partition_json_is_the_unforced_profile(capsys):
    argv = ["partition", "--n", "4", "--p", "2", "--N-trunc", "2", "--json"]
    code, doc = run_json(capsys, argv)
    assert main(argv + ["--force"]) == code == EXIT_PASS
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checks"] == doc["checks"]
    assert "n = 4 predicts 32 nondegenerate simplices (per degree " \
        "(0, 1, 13, 18))" in captured.err


def test_json_reports_are_byte_identical(h1_path, capsys):
    argv = ["verify", h1_path, "--suite", "all", "--json"]
    main(argv)
    a = capsys.readouterr().out
    main(argv)
    b = capsys.readouterr().out
    assert a == b
    # and exclude timing fields from the schema
    assert "wall" not in a


def test_text_and_json_agree_on_numbers(h1_path, capsys):
    code, doc = run_json(capsys, ["koszul", h1_path, "--json"])
    text_code = main(["koszul", h1_path])
    text = capsys.readouterr().out
    assert code == text_code == EXIT_PASS
    assert "[1, 1, 0, 0, 0]" in text
    assert "wall-time" in text


def test_fingerprint_stable_and_in_report(h1_path, capsys):
    ds = builtin_height1(3, 2, 4)
    fp = fingerprint(ds)
    _, doc = run_json(capsys, ["koszul", h1_path, "--json"])
    assert doc["dataset_fingerprint"] == fp


def test_gen_height1_seeded_variant(tmp_path, capsys):
    out = str(tmp_path / "syn.json")
    code = main(["gen-height1", "--p", "3", "--N", "2", "--kmax", "4",
                 "--seed", "5", "--out", out])
    assert code == EXIT_PASS
    capsys.readouterr()
    code, _ = run_json(capsys, ["verify", out, "--suite", "all", "--json"])
    assert code == EXIT_PASS


def test_gen_height1_unwritable_path(capsys):
    code = main(["gen-height1", "--p", "2", "--N", "1", "--kmax", "2",
                 "--out", "/nonexistent/dir/x.json"])
    assert code == EXIT_IO


def call_with_deadline(seconds, fn, *args):
    """fn(*args), or TimeoutError once ``seconds`` of wall time have passed."""
    def timeout(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_wide_modulus_verify_finishes_quickly(tmp_path):
    # p^N = 27 at kmax 5: this dataset used to stall for minutes in homology
    path = tmp_path / "syn.json"
    save_dataset(synthetic_height1_dataset(3, 3, 5, 9), path)
    report, code = call_with_deadline(
        10, run, ["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS
    assert all(c.status == "pass" for c in report.checks)


def test_partition_n6_homology_finishes_quickly():
    # n = 6 has ranks 201/1865/4245/2700; dense elimination of these did
    # not finish in 10 minutes.  Over Z/4 the homology is free of rank 5! in
    # degree 5 and zero elsewhere.
    report, code = call_with_deadline(
        30, run, ["partition", "--n", "6", "--p", "2", "--N-trunc", "2", "--json"])
    assert code == EXIT_PASS
    payload = report.checks[0].payload
    assert payload["profile"] == {
        str(d): {"free_rank": 120 if d == 5 else 0, "torsion_exponents": []}
        for d in range(6)}


def test_large_prime_p_finishes_quickly(tmp_path, capsys):
    # trial division up to sqrt(p) ran for minutes on p = 2^61 - 1
    p = 2 ** 61 - 1
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    doc["p"] = p
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in (["koszul", str(path)],
                 ["partition", "--n", "3", "--p", str(p)]):
        assert call_with_deadline(10, main, argv) in (EXIT_PASS, EXIT_IO, EXIT_MATH)
        assert "Traceback" not in capsys.readouterr().err


def test_p_from_2_to_the_64_is_rejected(tmp_path, capsys):
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    doc["p"] = 2 ** 64 + 13
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["koszul", str(path)]) == EXIT_IO
    assert "top level" in capsys.readouterr().err
    for argv in (["partition", "--n", "3", "--p", str(2 ** 64 + 13)],
                 ["partition", "--n", "3", "--p", "4"],
                 ["gen-height1", "--p", "4", "--N", "1",
                  "--out", str(tmp_path / "x.json")]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err


def test_module_bar_profile_does_not_depend_on_weight(h1_path, capsys):
    # each reported degree is Tor, so a larger --weight only adds degrees
    profiles = {}
    for w in (2, 3, 4):
        code, doc = run_json(capsys, ["bar", h1_path, "--weight", str(w),
                                      "--module", "triv", "--json"])
        assert code == EXIT_PASS
        payload = next(c for c in doc["checks"]
                       if c["name"] == "bar-complex")["payload"]
        assert sorted(payload["profile"]) == [str(s) for s in range(w + 1)]
        assert len(payload["ranks"]) == w + 1
        profiles[w] = payload["profile"]
    for w in (2, 3):
        for s, deg in profiles[w].items():
            assert deg == profiles[4][s], f"degree {s} at --weight {w}"


def report_line(report):
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def test_commands_in_one_process_report_as_fresh_processes_do(h1_path):
    """The parser is built once per process: subcommands alternating in one
    process, defaults after explicit values among them, report exactly what
    a fresh process reports for each."""
    argvs = [["koszul", h1_path, "--module", "sphere", "--json"],
             ["bar", h1_path, "--weight", "2", "--json"],
             ["koszul", h1_path, "--json"],
             ["mic", h1_path, "--k", "2", "--json"],
             ["verify", h1_path, "--suite", "koszul", "--json"],
             ["verify", h1_path, "--json"]]
    env = dict(os.environ, PYTHONPATH=str(Path(koszulab.__file__).parents[1]))
    for argv in argvs:
        report, code = run(argv)
        fresh = subprocess.run([sys.executable, "-m", "koszulab.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (fresh.returncode, fresh.stdout) == (code, report_line(report))


def test_usage_error_leaves_the_next_run_unaffected(h1_path, capsys):
    before, _ = run(["bar", h1_path, "--weight", "1", "--module", "sphere", "--json"])
    for bad in (["bar", h1_path, "--weight", "one"], ["verify", h1_path, "--suite", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == EXIT_USAGE
    after, code = run(["bar", h1_path, "--weight", "1", "--module", "sphere", "--json"])
    assert code == EXIT_PASS
    assert report_line(after) == report_line(before)
    default, _ = run(["bar", h1_path, "--weight", "1", "--json"])
    assert default.command == ["bar", "--weight=1"]


def test_singular_pairing_fails_validation_and_each_duality_k(tmp_path, capsys):
    """A pairing that is not invertible mod p^N (k = 2 set to [[3]] over
    Z/9) fails validation naming it; the duality fails with a witness for
    each k >= 2 and the shift square, which reads only the weight-1
    pairing, passes: every suite reports, exit 3."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    for ent in doc["subgroup_package"]["pairing"]:
        if ent["k"] == 2:
            ent["matrix"] = [[3]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["verify", str(path), "--suite", "all",
                                     "--json"])
    assert code == EXIT_MATH
    checks = {c["name"]: c for c in report["checks"]}
    assert "computation" not in checks
    assert checks["dataset-validation"]["payload"]["witnesses"] == \
        ["singular pairing: subgroup_package.pairing[k=2]"]
    assert checks["suite-mic-duality"]["payload"]["witnesses"] == \
        [f"k={k}: pairing for weight 2 is singular mod p^N" for k in (2, 3)]
    assert checks["suite-shift-square"]["status"] == "pass"


def test_modulus_wider_than_the_bound_is_refused_quickly(tmp_path, capsys):
    """N = 10^20 once ran without end: a dataset is refused at load naming
    the top level (exit 1), a ring from the command line is a usage error
    (exit 2).  The bound is N * bitlength(p) <= 4096."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    doc["N"] = 10 ** 20
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert call_with_deadline(5, main, ["mic", str(path), "--k", "2"]) == EXIT_IO
    err = capsys.readouterr().err
    assert "top level" in err and "wider than 4096 bits" in err
    assert "Traceback" not in err
    argv = ["partition", "--n", "3", "--p", "2", "--N-trunc", str(10 ** 20)]
    assert call_with_deadline(5, main, argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err
    doc["p"], doc["N"] = 2, 2048           # 2 * 2048 = 4096: accepted
    path.write_text(json.dumps(doc))
    assert call_with_deadline(5, main, ["mic", str(path), "--k", "2"]) == EXIT_PASS
    doc["N"] = 2049
    path.write_text(json.dumps(doc))
    assert call_with_deadline(5, main, ["mic", str(path), "--k", "2"]) == EXIT_IO
    capsys.readouterr()
