import json
import os
import subprocess
import sys

import pytest

from hecke_functor.cli import main
from hecke_functor.numkernel import CONDUCTOR_GUARD


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_example_sln_report(capsys):
    data = run_json(["example", "sln", "--n", "3"], capsys)
    assert data["stabilizer_order"] == 3
    assert data["quotient"] == "Z/3"
    assert data["tau_generator_value"] == "zeta_3^2"   # zeta_3^{-1}
    assert data["ad_pullback_shift"] == "zeta_3^1"
    assert data["inclusion_pullback_size"] == 3
    assert data["packet_union"] is True


def test_example_text_stable(capsys):
    code1, out1, _ = run_cli(["example", "sln", "--n", "4", "--format", "text"], capsys)
    code2, out2, _ = run_cli(["example", "sln", "--n", "4", "--format", "text"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "stabilizer_order: 4" in out1


def test_rootdatum_build_validate_dual(tmp_path, capsys):
    data = run_json(["rootdatum", "build", "--family", "GL", "--n", "3"], capsys)
    assert data["rank"] == 3
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps(data))
    check = run_json(["rootdatum", "validate", "--in", str(path)], capsys)
    assert check["valid"] is True
    dual_data = run_json(["rootdatum", "dual", "--in", str(path)], capsys)
    assert dual_data == data      # GL is self-dual


def test_rootdatum_automorphisms(capsys):
    data = run_json(["rootdatum", "automorphisms", "--in", "datum:gl4"], capsys)
    assert data["count"] == 2


def test_rootdatum_factorize(capsys):
    # the inclusion of the determinant-one subgroup of GL_2 at lattice level
    from hecke_functor.rootdata import build_classical, RDMorphism
    mor = RDMorphism(build_classical("A", 1, "sc"), build_classical("GL", 2),
                     ((1, -1),))
    data = run_json(["rootdatum", "factorize", "--in", json.dumps(mor.to_json())],
                    capsys)
    assert data["admissible"] is True
    assert data["torus_rank"] == 1
    assert data["kernel_invariants"] == [2]
    assert data["recomposes"] is True


def test_weyl_verbs(capsys):
    data = run_json(["weyl", "enumerate", "--in", "datum:a2sc"], capsys)
    assert data["order"] == 6
    data = run_json(["weyl", "omega", "--in", "datum:a1sc"], capsys)
    assert data["order"] == 2
    data = run_json(["weyl", "length", "--in", "datum:a1sc",
                     "--element", '{"t": [2], "w_word": []}'], capsys)
    assert data["length"] == 2
    point = json.dumps([{"q": "0", "angle": "0"}, {"q": "0", "angle": "1/2"}])
    data = run_json(["weyl", "stabilizer", "--in", "datum:gl2",
                     "--point", point, "--projective"], capsys)
    assert data["order"] == 2


def _elt(t, word):
    return json.dumps([[{"t": t, "w_word": word, "r": 0},
                        {"vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, "1"]]}]]}]])


def test_hecke_mul_unit(capsys):
    data = run_json(["hecke", "mul", "--spec", "datum:a1sc",
                     "--a", _elt([0], []), "--b", _elt([0], [0])], capsys)
    assert len(data["product"]) == 1
    key = data["product"][0][0]
    assert key["t"] == [0] and key["w_word"] == [0]


def test_hecke_center_check(capsys):
    data = run_json(["hecke", "center-check", "--spec", "datum:a1sc",
                     "--a", _elt([0], [])], capsys)
    assert data["central"] is True
    data = run_json(["hecke", "center-check", "--spec", "datum:a1sc",
                     "--a", _elt([0], [0])], capsys)
    assert data["central"] is False


def test_hecke_ad_xg(capsys):
    data = run_json(["hecke", "ad-xg", "--spec", "datum:a1ad", "--xg", "1/2",
                     "--a", _elt([0], [0])], capsys)
    (key, _), = data["image"]
    assert key["t"] == [1] and key["w_word"] == [0]


def test_finrep_verbs(capsys):
    data = run_json(["finrep", "irreducibles", "--group", "group:s3"], capsys)
    assert data["degrees"] == [1, 1, 2]
    triv = json.dumps([{"n": 1, "coeffs": [[0, "1"]]}] * 2)
    data = run_json(["finrep", "induce", "--group", "group:z4",
                     "--normal", "0,2", "--rho", triv], capsys)
    assert len(data["decomposition"]) == 2


def test_param_verbs(capsys):
    data = run_json(["param", "component-group", "--param", "param:sln5"], capsys)
    assert data["order"] == 5 and data["cyclic"] is True
    data = run_json(["param", "enhancements", "--param", "param:sln5"], capsys)
    assert data["count"] == 5
    data = run_json(["param", "tau", "--param", "param:sln3", "--g", "1,0,0"], capsys)
    assert sorted(data["values"]) == ["1", "zeta_3^1", "zeta_3^2"]


def test_pullback_verb(capsys):
    hom = json.dumps({"steps": [{"kind": "sl_gl", "dom": [["SL", 3]],
                                 "dom_zeta": [0]}]})
    param = json.dumps({"factors": [{"tag": "GLn", "n": 3,
                                     "eigs": [{"q": "0", "angle": "0"},
                                              {"q": "0", "angle": "1/3"},
                                              {"q": "0", "angle": "2/3"}]}],
                        "zeta": [0]})
    data = run_json(["pullback", "--hom", hom, "--param", param, "--rho", "0"],
                    capsys)
    assert data["count"] == 3
    assert all(o["multiplicity"] == 1 for o in data["outputs"])


def test_validation_exit_code(capsys):
    code, _, err = run_cli(["rootdatum", "validate", "--in", "/no/such/file"], capsys)
    assert code == 2
    assert "validation error" in err
    code, _, err = run_cli(["pullback", "--hom", '{"steps": []}',
                            "--param", "param:sln3"], capsys)
    assert code in (1, 2)


_ONE = {"vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, "1"]]}]]}


@pytest.mark.parametrize("args", [
    # a term that is not a [key, polynomial] pair
    ["hecke", "mul", "--spec", "datum:a2sc", "--a", "[[1,2]]", "--b", "[]"],
    # a Weyl-word letter past the simple reflections
    ["weyl", "length", "--in", "datum:a2sc", "--element", '{"t":[0],"w_word":[3]}'],
    # a translation of the wrong rank
    ["weyl", "length", "--in", "datum:a2sc", "--element", '{"t":[5],"w_word":[1]}'],
    ["hecke", "mul", "--spec", "datum:a2sc", "--b", "[]", "--a",
     json.dumps([[{"t": [0, 0, 0], "w_word": []}, _ONE]])],
    # an R-group index on a trivial R-group
    ["hecke", "mul", "--spec", "datum:a2sc", "--b", "[]", "--a",
     json.dumps([[{"t": [0, 0], "w_word": [], "r": 3}, _ONE]])],
    # a polynomial whose terms are not a list
    ["hecke", "mul", "--spec", "datum:a2sc", "--b", "[]", "--a",
     json.dumps([[{"t": [0, 0], "w_word": []}, {"vars": ["z"], "terms": 5}]])],
    # a polynomial in a variable the spec does not have
    ["hecke", "mul", "--spec", "datum:a2sc", "--b", "[]", "--a",
     json.dumps([[{"t": [0, 0], "w_word": []}, dict(_ONE, vars=["q"])]])],
    # a point whose coordinates are not eigenvalue objects
    ["weyl", "stabilizer", "--in", "datum:gl3", "--point", "[[0,0],[0,0],[0,0]]"],
    # a point with fewer coordinates than the rank
    ["weyl", "stabilizer", "--in", "datum:gl3", "--point", '[{"q": "0", "angle": "0"}]'],
    # a morphism without a target or a character map
    ["rootdatum", "factorize", "--in", '{"source":1}'],
    # a table in which one element has no inverse
    ["finrep", "irreducibles", "--group", '{"table":[[0,1],[1,1]]}'],
])
def test_malformed_element_is_refused(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("validation error")
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("conductor", [0, -3, CONDUCTOR_GUARD + 1, 10 ** 6])
def test_conductor_outside_the_guard_is_refused(conductor, capsys, monkeypatch):
    from hecke_functor import numkernel

    def refuse(n):
        raise AssertionError(f"cyclotomic polynomial of conductor {n} requested")
    monkeypatch.setattr(numkernel, "_cyclotomic_poly", refuse)
    coeff = {"n": conductor, "coeffs": [[1, "1"]]}
    code, out, err = run_cli(["hecke", "mul", "--spec", "datum:a2sc", "--b", "[]", "--a",
                              json.dumps([[{"t": [0, 0], "w_word": []},
                                           dict(_ONE, terms=[[[0], coeff]])]])], capsys)
    assert code == 2
    assert err.startswith("validation error")
    assert out == ""


def test_computation_exit_code(capsys):
    # a structurally valid but inadmissible automorphism request
    code, _, err = run_cli(["rootdatum", "automorphisms", "--in",
                            json.dumps({"rank": 2, "roots": [], "coroots": [],
                                        "simples": []})], capsys)
    assert code == 1
    assert "computation error" in err


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["example", "sln", "--n", "2", "--out", str(target)],
                           capsys)
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["n"] == 2


def test_fixture_directory_env(tmp_path, capsys, monkeypatch):
    from hecke_functor.rootdata import build_classical
    fixture = tmp_path / "mydatum.json"
    fixture.write_text(json.dumps(build_classical("C", 2, "sc").to_json()))
    monkeypatch.setenv("HECKE_FUNCTOR_FIXTURES", str(tmp_path))
    data = run_json(["weyl", "enumerate", "--in", "mydatum"], capsys)
    assert data["order"] == 8


def test_json_round_trip_of_emitted_values(capsys):
    # everything the CLI emits re-parses to an equal value
    for args in (["rootdatum", "build", "--family", "A", "--n", "2",
                  "--isogeny", "ad"],
                 ["example", "sln", "--n", "3"],
                 ["param", "component-group", "--param", "param:sln4"]):
        data1 = run_json(args, capsys)
        data2 = run_json(args, capsys)
        assert data1 == data2
        assert json.loads(json.dumps(data1)) == data1


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hecke_functor.cli",
                           "example", "sln", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2
