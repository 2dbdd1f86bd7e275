import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from hecke_functor.cli import main
from hecke_functor.hecke import KEY_LENGTH_GUARD
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
    # GL_1 and a rank-1 datum without roots have no simple roots: x -> +-x
    for source in ("datum:gl4", "datum:gl1",
                   json.dumps({"rank": 1, "roots": [], "coroots": [], "simples": []})):
        data = run_json(["rootdatum", "automorphisms", "--in", source], capsys)
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


@pytest.mark.parametrize("datum", ["b3ad", "a3ad"])
def test_hecke_center_check_of_rank_three_adjoint_data(datum, capsys):
    # the check builds theta of every coordinate vector, which lies far from
    # the dominant cone in adjoint rank 3
    data = run_json(["hecke", "center-check", "--spec", f"datum:{datum}", "--a", "[]"],
                    capsys)
    assert data["central"] is True


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
    # a twist value that is not a coefficient object
    ["hecke", "twist", "--spec", "datum:a1sc", "--psi", "[5]", "--a", "[]"],
    # parameter factors that are not a list
    ["param", "component-group", "--param", '{"factors":5}'],
    # an Ad step whose vector is not a list of blocks
    ["pullback", "--hom", '{"steps":[{"kind":"ad","dom":[["SL",3]],"g":5}]}',
     "--param", "param:sln3"],
    # an Ad block longer than its SL_3 factor
    ["pullback", "--hom", '{"steps":[{"kind":"ad","dom":[["SL",3]],"g":[[1,2,3,4,5]]}]}',
     "--param", "param:sln3"],
    # character values that are not coefficient objects
    ["finrep", "induce", "--group", "group:z4", "--normal", "0,2", "--rho", "[5]"],
    # a spec without a datum
    ["hecke", "mul", "--spec", '{"labels":5}', "--a", "[]", "--b", "[]"],
    # a spec file that holds a number
    ["hecke", "mul", "--spec", "<file holding 5>", "--a", "[]", "--b", "[]"],
    # fixture names outside the grammar
    ["weyl", "enumerate", "--in", "datum:"],
    ["weyl", "enumerate", "--in", "datum:glx"],
    ["param", "component-group", "--param", "param:slnx"],
    # element indices outside the group, or not integers
    ["finrep", "induce", "--group", "group:s3", "--normal", "0,9", "--rho", "[]"],
    ["finrep", "induce", "--group", "group:s3", "--normal", "-1", "--rho", "[]"],
    ["finrep", "induce", "--group", "group:s3", "--normal", "a,b", "--rho", "[]"],
    ["finrep", "induce", "--group", "group:s3", "--rho", "[]"],
    # a cocharacter that is not integers
    ["param", "tau", "--param", "param:sln3", "--g", "x"],
    # an x_g that is not rationals, or has a zero denominator
    ["hecke", "ad-xg", "--spec", "datum:a1ad", "--xg", "abc", "--a", "[]"],
    ["hecke", "ad-xg", "--spec", "datum:a1ad", "--xg", "1/0", "--a", "[]"],
    ["hecke", "ad-xg", "--spec", "datum:a1ad", "--a", "[]"],
    # a set of element indices that is not closed under the product
    ["finrep", "induce", "--group", "group:z4", "--normal", "0,1", "--rho", "[]"],
    # sizes below 1
    ["param", "component-group", "--param", "param:sln0"],
    ["param", "component-group", "--param", "param:sln-3"],
    ["example", "sln", "--n", "0"],
    ["rootdatum", "build", "--family", "A", "--n", "-2"],
])
def test_malformed_element_is_refused(args, capsys, tmp_path):
    five = tmp_path / "five.json"
    five.write_text("5")
    code, out, err = run_cli([str(five) if a == "<file holding 5>" else a for a in args],
                             capsys)
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


@pytest.mark.parametrize("t", [3000, 100000, KEY_LENGTH_GUARD + 1])
def test_a_key_longer_than_the_guard_is_refused(t, capsys):
    # N_s N_{t_x} on A1 recurses once per unit of l(t_x) = x
    n_s = json.dumps([[{"t": [0], "w_word": [0]}, _ONE]])
    n_t = json.dumps([[{"t": [t], "w_word": []}, _ONE]])
    code, out, err = run_cli(["hecke", "mul", "--spec", "datum:a1sc", "--a", n_s,
                              "--b", n_t], capsys)
    assert code == 2 and out == ""
    assert err == f"validation error: a basis key longer than {KEY_LENGTH_GUARD}\n"


def test_a_key_at_the_guard_is_multiplied(capsys):
    n_s = json.dumps([[{"t": [0], "w_word": [0]}, _ONE]])
    n_t = json.dumps([[{"t": [KEY_LENGTH_GUARD], "w_word": []}, _ONE]])
    data = run_json(["hecke", "mul", "--spec", "datum:a1sc", "--a", n_s, "--b", n_t], capsys)
    # l(s t_x) = l(t_x) + 1, and s t_x = t_{-x} s
    assert data["product"] == [[{"r": 0, "t": [-KEY_LENGTH_GUARD], "w_word": [0]}, _ONE]]


@pytest.mark.parametrize("spec, x_g, refused", [
    # theta_{k alpha} with k = <x_g, alpha^> has length 2|k| on A1, and
    # k = 2 x_g on A1 ad
    ("datum:a1ad", "64", False),
    ("datum:a1ad", "129/2", True),
    ("datum:a1ad", "-129/2", True),
    ("datum:a1ad", "300", True),
    ("datum:a1sc", "129", True),
])
def test_an_x_g_past_the_key_guard_is_refused_before_any_theta(spec, x_g, refused, capsys,
                                                              monkeypatch):
    from hecke_functor import hecke
    if refused:
        def refuse(*args):
            raise AssertionError("theta built for a refused x_g")
        monkeypatch.setattr(hecke, "theta", refuse)
        monkeypatch.setattr(hecke, "mul_im", refuse)
    theta_y = json.dumps([[{"r": 0, "t": [1], "w_word": []}, _ONE]])
    code, out, err = run_cli(["hecke", "ad-xg", "--spec", spec, f"--xg={x_g}",
                              "--a", theta_y], capsys)
    if refused:
        assert code == 2 and out == ""
        assert err == f"validation error: x_g needs a theta key longer than {KEY_LENGTH_GUARD}\n"
    else:
        # Ad(x_g) fixes every theta_y
        assert code == 0, err
        assert json.loads(out)["image"] == json.loads(theta_y)


def test_invalid_datum_is_refused_before_enumeration(capsys, monkeypatch):
    # the reflections of this datum generate an infinite group; a small guard
    # bounds the enumeration should the datum ever reach it
    from hecke_functor import weyl
    monkeypatch.setattr(weyl, "WEYL_SIZE_GUARD", 50)
    datum = {"rank": 2, "roots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
             "coroots": [[2, -3], [-2, 3], [-3, 2], [3, -2]], "simples": [0, 2]}
    code, out, err = run_cli(["weyl", "enumerate", "--in", json.dumps(datum)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("computation error: roots not stable")
    assert len(err.strip().splitlines()) == 1


def test_dependent_simple_roots_are_refused(capsys):
    datum = {"rank": 1, "roots": [[1], [-1]], "coroots": [[2], [-2]], "simples": [0, 1]}
    code, out, err = run_cli(["weyl", "enumerate", "--in", json.dumps(datum)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("computation error: the simple roots are linearly dependent")
    assert len(err.strip().splitlines()) == 1


def test_factorize_refuses_an_invalid_datum_as_validate_does(capsys):
    from hecke_functor.rootdata import build_classical
    # <alpha, alpha^> = 3, yet every root maps to itself: only validation refuses
    bad = {"rank": 1, "roots": [[3], [-3]], "coroots": [[1], [-1]], "simples": [0]}
    a1 = build_classical("A", 1, "sc").to_json()
    refusal = run_cli(["rootdatum", "validate", "--in", json.dumps(bad)], capsys)
    assert refusal == (1, "", "computation error: <alpha, alpha^> != 2 at index 0\n")
    for source, target in ((bad, bad), (bad, a1), (a1, bad)):
        mor = json.dumps({"source": source, "target": target, "char_map": [[1]]})
        assert run_cli(["rootdatum", "factorize", "--in", mor], capsys) == refusal


def test_a_principal_cycle_above_the_guard_is_refused_before_its_list(capsys, monkeypatch):
    from hecke_functor import lparam
    before = run_json(["param", "component-group", "--param", "param:sln64"], capsys)
    assert (before["order"], before["cyclic"], before["quotient_order"]) == (64, True, 64)

    def refuse(*args):
        raise AssertionError("a list built for a refused fixture")
    monkeypatch.setattr(lparam, "_normalize_projective", refuse)
    for request in (["param", "component-group", "--param", "param:sln65"],
                    ["param", "component-group", "--param", "param:sln100000"],
                    ["example", "sln", "--n", "100000"]):
        start = time.perf_counter()
        code, out, err = run_cli(request, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "computation error: group larger than the desk guard\n"


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


def test_unreadable_inputs_are_refused(tmp_path, capsys, monkeypatch):
    # a fixture-directory file, a file and a directory read through one path
    (tmp_path / "broken.json").write_text("{bad")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    monkeypatch.setenv("HECKE_FUNCTOR_FIXTURES", str(tmp_path))
    for source in ("broken", "binary", str(tmp_path / "broken.json"), str(tmp_path)):
        code, out, err = run_cli(["weyl", "enumerate", "--in", source], capsys)
        assert code == 2 and out == ""
        assert err.startswith("validation error")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["group:s9", "group:z100000", "group:d100000"])
def test_a_group_fixture_above_the_guard_is_refused_before_its_table(name, capsys):
    code, out, err = run_cli(["finrep", "irreducibles", "--group", name], capsys)
    assert (code, out) == (1, "")
    assert err == "computation error: group larger than the desk guard\n"


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


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    from hecke_functor import cli
    monkeypatch.setenv("COLUMNS", "80")            # one help layout on both sides
    assert cli.build_parser() is cli.build_parser()
    refused = ["weyl", "bogus", "--in", "datum:a2sc"]
    requests = [["weyl", "length", "--in", "datum:a2sc",
                 "--element", '{"t": [1, -1], "w_word": [0, 1]}'],
                ["hecke", "mul", "--spec", "datum:a1sc", "--a", _elt([1], [0]),
                 "--b", _elt([0], [0])]]
    in_process = []
    for request in requests:
        with pytest.raises(SystemExit) as exc:
            main(refused)
        assert exc.value.code == 2
        refusal = capsys.readouterr().err
        in_process.append(run_cli(request, capsys))
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text == cli.build_parser.__wrapped__().format_help()

    def fresh(args):
        proc = subprocess.run([sys.executable, "-m", "hecke_functor.cli", *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    assert [code for code, _, _ in in_process] == [0, 0]
    assert fresh(refused) == (2, "", refusal)
    assert in_process == [fresh(request) for request in requests]
    assert fresh(["--help"]) == (0, help_text, "")


# fixture names the grammar accepts; any other name with a fixture prefix is refused
_WELL_FORMED = re.compile(r"datum:gl-?[0-9]+|datum:[A-Za-z]-?[0-9]+[a-z]{2}"
                          r"|group:[sdz]-?[0-9]+|param:sln-?[0-9]+")
_ARG_TEXT = st.text(alphabet=st.sampled_from("0123456789-+/,;. ax_\u0663\n"), max_size=10) | \
    st.text(max_size=6)


def _one_line_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (1, 2), (argv, code)
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(prefix=st.sampled_from(["datum:", "datum:gl", "datum:a", "group:", "group:s",
                               "param:", "param:sln"]),
       rest=_ARG_TEXT)
def test_malformed_fixture_names_are_refused_on_one_line(prefix, rest):
    name = prefix + rest
    assume(not _WELL_FORMED.fullmatch(name) and not os.path.exists(name))
    _one_line_refusal(["weyl", "enumerate", "--in", name])
    _one_line_refusal(["param", "component-group", "--param", name])


@settings(max_examples=100, deadline=None)
@given(normal=_ARG_TEXT, g=_ARG_TEXT, xg=_ARG_TEXT)
def test_malformed_number_lists_are_refused_on_one_line(normal, g, xg):
    # a trailing ',' leaves an empty entry and a trailing '/' an empty
    # denominator, so each string is malformed whatever precedes it
    _one_line_refusal(["finrep", "induce", "--group", "group:s3", f"--normal={normal},",
                       "--rho", "[]"])
    _one_line_refusal(["param", "tau", "--param", "param:sln3", f"--g={g},"])
    _one_line_refusal(["hecke", "ad-xg", "--spec", "datum:a1ad", f"--xg={xg}/", "--a", "[]"])


def _clear_decode_memos():
    from hecke_functor import hecke, rootdata
    rootdata._shared.cache_clear()
    hecke.shared_spec.cache_clear()


def _sweep_requests():
    """One valid and one malformed request for every verb but selftest; the
    two spec objects share their datum and differ in their labels only."""
    from hecke_functor.functor import hom_sl_to_gl
    from hecke_functor.hecke import HeckeSpec
    from hecke_functor.rootdata import build_classical
    a2 = build_classical("A", 2, "sc")
    n_s = json.dumps([[{"t": [0, 0], "w_word": [0]}, _ONE]])
    bad_datum = json.dumps({"rank": 1, "roots": [[3], [-3]], "coroots": [[1], [-1]],
                            "simples": [0]})
    eig = {"q": "0", "angle": "1/3"}
    hom = {"steps": [{"kind": "sl_gl", "dom": [["SL", 3]], "dom_zeta": [0]}]}
    gl3 = {"factors": [{"tag": "GLn", "n": 3, "eigs": [{"q": "0", "angle": f"{k}/3"}
                                                      for k in range(3)]}], "zeta": [0]}
    requests = [
        ["rootdatum", "build", "--family", "B", "--n", "3"],
        ["rootdatum", "build", "--family", "Q", "--n", "2"],
        ["rootdatum", "validate", "--in", "datum:c3ad"],
        ["rootdatum", "validate", "--in", bad_datum],
        ["rootdatum", "dual", "--in", "datum:b2sc"],
        ["rootdatum", "automorphisms", "--in", "datum:a3ad"],
        ["rootdatum", "factorize", "--in", json.dumps(hom_sl_to_gl(3).lattice_map.to_json())],
        ["rootdatum", "factorize", "--in", '{"source":1}'],
        ["weyl", "enumerate", "--in", "datum:a2sc"],
        ["weyl", "length", "--in", "datum:a2sc", "--element", '{"t":[1,-1],"w_word":[0,1]}'],
        ["weyl", "length", "--in", "datum:a2sc", "--element", '{"t":[0,0],"w_word":[3]}'],
        ["weyl", "stabilizer", "--in", "datum:gl3", "--point", json.dumps([eig, eig, eig])],
        ["weyl", "omega", "--in", "datum:b3ad"],
        ["weyl", "omega", "--in", bad_datum],
    ]
    for labels in (1, 2):
        spec = json.dumps(HeckeSpec(a2, labels=labels).to_json())
        requests.append(["hecke", "mul", "--spec", spec, "--a", n_s, "--b", n_s])
    requests += [
        ["hecke", "mul", "--spec", "datum:a2sc", "--a", "[[1,2]]", "--b", "[]"],
        ["hecke", "center-check", "--spec", "datum:a2sc", "--a", n_s],
        ["hecke", "ad-xg", "--spec", "datum:a1ad", "--xg", "1/2", "--a",
         json.dumps([[{"t": [1], "w_word": [0]}, _ONE]])],
        ["hecke", "twist", "--spec", "datum:a1sc", "--psi", json.dumps([_ONE["terms"][0][1]]),
         "--a", json.dumps([[{"t": [1], "w_word": [0]}, _ONE]])],
        ["finrep", "irreducibles", "--group", "group:d4"],
        ["finrep", "induce", "--group", "group:z4", "--normal", "0,2", "--rho",
         json.dumps([_ONE["terms"][0][1]] * 2)],
        ["finrep", "induce", "--group", "group:z4", "--normal", "0,1", "--rho", "[]"],
        ["param", "component-group", "--param", "param:sln3"],
        ["param", "tau", "--param", "param:sln3", "--g", "1,0,0"],
        ["param", "enhancements", "--param", "param:sln4"],
        ["param", "tau", "--param", "param:sln3", "--g", "x"],
        ["pullback", "--hom", json.dumps(hom), "--param", json.dumps(gl3)],
        ["pullback", "--hom", json.dumps(hom), "--param", "param:sln3"],
        ["example", "sln", "--n", "3"],
        ["example", "sln", "--n", "-2"],
    ]
    return requests


def test_cold_and_warm_replies_agree(capsys):
    requests = _sweep_requests()
    cold = []
    for args in requests:
        _clear_decode_memos()
        cold.append(run_cli(args, capsys))
    assert {code for code, _, _ in cold} == {0, 1, 2}
    for _ in range(2):
        assert [run_cli(args, capsys) for args in requests] == cold


def test_json_output_is_json_dumps_of_the_payload(capsys, monkeypatch, tmp_path):
    # the handler's payload, rendered by the live json.dumps: nothing frozen
    from hecke_functor import cli
    payloads = []

    def recorded(handler):
        def run(args):
            payloads.append(handler(args))
            return payloads[-1]
        return run

    for verb, handler in list(cli._DISPATCH.items()):
        monkeypatch.setitem(cli._DISPATCH, verb, recorded(handler))
    requests = _sweep_requests() + [
        ["finrep", "irreducibles", "--format", "json", "--group", "group:s4"],
        ["hecke", "mul", "--format", "json", "--spec", "datum:a1sc", "--a",
         json.dumps([[{"t": [1], "w_word": [0]}, _ONE]]), "--b",
         json.dumps([[{"t": [-2], "w_word": [0]}, _ONE]])],
        ["rootdatum", "automorphisms", "--format", "json", "--in", "datum:d4sc"],
    ]
    verbs = set()
    for args in requests:
        payloads.clear()
        code, out, _ = run_cli(args, capsys)
        if code == 0:
            verbs.add(next(a for a in args if a in cli._DISPATCH))
            assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"
    assert verbs == set(cli._DISPATCH)
    target = tmp_path / "out.json"
    assert run_cli(requests[-1] + ["--out", str(target)], capsys) == (0, "", "")
    assert target.read_text() == run_cli(requests[-1], capsys)[1]


def test_decode_memos_stay_bounded():
    from hecke_functor import hecke, rootdata
    from hecke_functor.hecke import HeckeSpec
    from hecke_functor.rootdata import BasedRootDatum, build_classical
    template = HeckeSpec(build_classical("A", 1, "sc")).to_json()
    for k in range(300):
        datum = {"rank": k, "roots": [], "coroots": [], "simples": []}
        assert BasedRootDatum.from_json(datum).to_json() == datum
        spec = dict(template, labels=[[0, [k, k]], [1, [k, k]]])
        assert HeckeSpec.from_json(spec).to_json() == spec
    for memo in (rootdata._shared, hecke.shared_spec):
        info = memo.cache_info()
        assert 0 < info.currsize <= info.maxsize < 300
