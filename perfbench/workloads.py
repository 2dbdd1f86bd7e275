"""The three workloads, as seen from the child process that runs one round.

Each workload function takes the inputs, builds the fixtures and returns
the list of operations.  An operation is `Op(run, check)`: `run()` calls
the library and is what the per-operation latency covers; `check(output)`
holds the output to an independent truth from `checks` and returns None or
a reason.  An exception out of `run()` makes the operation a failed one.

Import this module only after the tracer (if any) is installed, so that the
library names bound here are the traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import deque
from fractions import Fraction
from typing import Callable, NamedTuple

from hecke_functor import cli
from hecke_functor.bernstein import oracle_pair_check
from hecke_functor.functor import (
    check_transitivity, compose, conjA_decompose, hom_ad,
    hom_dual_automorphism, hom_gl_to_pgl, hom_sl_to_gl, hom_sl_to_pgl,
    hom_torus_insertion, lmap_param,
)
from hecke_functor.hecke import HeckeSpec, is_central, mul_im, theta
from hecke_functor.lparam import (
    GroupTag, ToyParameter, component_group, parameter_from_json,
    relevant_enhancements,
)
from hecke_functor.rootdata import build_classical
from hecke_functor.weyl import Eig, stabilizer_of_point

import checks
from checks import SplitModel, element_sum, plain_element


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False


def _guarded(check):
    """A check that reports a malformed output as a failed check."""
    def run(out):
        try:
            return check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
    return run


# ---------------------------------------------------------------------------
# hecke_kernel


def _kernel_fixture(fx):
    family, rank, label = fx["family"], fx["rank"], fx["label"]
    name = f"{family}{rank},label={label}"
    model = SplitModel(family, rank)
    spec = HeckeSpec(build_classical(family, rank, "sc"), labels=label)
    if sorted(spec.datum.roots) != model.roots or spec.weyl.order != model.weyl_order:
        raise RuntimeError(f"{name}: the library's datum differs from the model")

    def widx(word):
        wi = 0
        for s in word:
            wi = spec.weyl.right_mult[wi][s]
        return wi

    def basis(key):
        x, word = key
        return spec.basis(tuple(x), widx(word))

    def mkey(key):
        return (tuple(key[0]), model.matrix(key[1]))

    def plain(elt):
        return plain_element(elt.to_json(), model)

    ops = []                             # the fixed operations
    unit_key = ((0,) * rank, model.identity)
    for x, wi in spec.all_gens:
        gen_key = (tuple(x), model.matrix(spec.weyl.words[wi]))
        n_s = spec.basis(x, wi)

        def check(out, gen_key=gen_key):
            if model.length(*gen_key) != 1:
                return f"{name}: generator of length {model.length(*gen_key)}"
            return checks.check_quadratic(plain(out), unit_key, gen_key, label)
        ops.append(Op(lambda n_s=n_s: mul_im(spec, n_s, n_s), _guarded(check)))

    for x, w, y, v in fx["oracle"]:
        args = (tuple(x), widx(w), tuple(y), widx(v))
        ops.append(Op(lambda args=args: oracle_pair_check(spec, *args),
                      lambda out: checks.check_flag(out, True, f"{name}: presentations")))

    for x in fx["centre"]:
        def run(orbit=model.orbit(x)):
            total = spec.zero()
            for y in orbit:
                total = total + theta(spec, y)
            return is_central(spec, total)
        ops.append(Op(run, lambda out: checks.check_flag(
            out, True, f"{name}: symmetrised theta-sum central")))
    for j in range(rank):
        ops.append(Op(lambda j=j: is_central(spec, spec.n_simple(j)),
                      lambda out: checks.check_flag(out, False, f"{name}: N_s central")))

    sampled = []                         # the operations the seed drew
    for a, b in fx["products"]:
        ka, kb = mkey(a), mkey(b)
        ab = model.product(ka, kb)
        additive = model.length(*ab) == model.length(*ka) + model.length(*kb)

        def check(out, ab=ab, additive=additive):
            elt = plain(out)
            return (checks.check_group_limit(elt, ab)
                    or (checks.check_lengths_add(elt, ab) if additive else None))
        sampled.append(Op(lambda a=basis(a), b=basis(b): mul_im(spec, a, b),
                          _guarded(check)))

    for a, b, c in fx["triples"]:
        abc = model.product(model.product(mkey(a), mkey(b)), mkey(c))

        def run(a=basis(a), b=basis(b), c=basis(c)):
            return (mul_im(spec, mul_im(spec, a, b), c),
                    mul_im(spec, a, mul_im(spec, b, c)))

        def check(out, abc=abc):
            lhs, rhs = plain(out[0]), plain(out[1])
            return (checks.check_equal(lhs, rhs, f"{name}: associativity")
                    or checks.check_group_limit(lhs, abc))
        sampled.append(Op(run, _guarded(check)))
    return ops, sampled


def hecke_kernel(inputs):
    """The fixed operations of every fixture, then the sampled ones.  What an
    operation costs, and which operations the collector's pauses land on,
    depends on what ran before it; run first, the slowest operations (the
    fixed ones) do not depend on the seed."""
    fixed, sampled = zip(*(_kernel_fixture(fx) for fx in inputs["fixtures"]))
    return [op for part in fixed + sampled for op in part]


# ---------------------------------------------------------------------------
# pullback


def _angle(c) -> Fraction:
    a, n = c.as_root_of_unity()
    return Fraction(a, n)


def _decomposition(pieces):
    """A decomposition as a multiset of (parameter, enhancement) -> m."""
    out = {}
    for phi, rho, m in pieces:
        key = (repr(phi.factors), json.dumps([v.to_json() for v in rho.values]))
        out[key] = out.get(key, 0) + m
    return out


def _catalog(n, ad):
    sl, gl, pgl = (GroupTag.single(k, n) for k in ("SL", "GL", "PGL"))
    return {"sl_gl": hom_sl_to_gl(n), "gl_pgl": hom_gl_to_pgl(n),
            "sl_pgl": hom_sl_to_pgl(n), "ad_sl": hom_ad(sl, [ad]),
            "ad_gl": hom_ad(gl, [ad]), "ad_pgl": hom_ad(pgl, [ad]),
            "dual_gl": hom_dual_automorphism(gl),
            "torus_sl": hom_torus_insertion(sl, 1),
            "torus_gl": hom_torus_insertion(gl, 1)}


def _chain_ops(f, q, tag, phi, pick):
    """check_transitivity, then the composite against the step-by-step
    pullback of one enhancement."""
    if tag != q.target:
        raise RuntimeError("chain parameter does not live on the codomain")

    def decompose():
        rhos = relevant_enhancements(tag, phi)
        rho = rhos[pick % len(rhos)]
        composite = _decomposition(conjA_decompose(compose(f, q), phi, rho))
        stepwise = {}
        for phi_mid, rho_mid, m in conjA_decompose(q, phi, rho):
            for key, m2 in _decomposition(conjA_decompose(f, phi_mid, rho_mid)).items():
                stepwise[key] = stepwise.get(key, 0) + m * m2
        return composite, stepwise

    return [Op(lambda: check_transitivity(f, q, phi),
               lambda out: checks.check_flag(out, True, "check_transitivity")),
            Op(decompose, lambda out: checks.check_equal(
                *out, "composite against step-by-step pullback"))]


def _conservation_op(f, tag, phi, rho):
    def run():
        pieces = conjA_decompose(f, phi, rho)
        index = (component_group(f.source, lmap_param(f, phi)).order
                 // component_group(tag, phi).order)
        return [(r.degree, m) for _, r, m in pieces], index, rho.degree
    return Op(run, lambda out: checks.check_conservation(*out))


def _sln_ops(n):
    """The SL_n worked example: the stabilizer, the Ad-twist, the inclusion
    pullback and, for n <= 5, the stabilizer through the Weyl group."""
    tag = GroupTag.single("SL", n)
    phi = ToyParameter.principal_cycle(tag)
    tag_gl = GroupTag.single("GL", n)
    phi_gl = ToyParameter.make(tag_gl, [[Eig.root_of_unity(k, n) for k in range(n)]])
    found = {}

    def stabilizer():
        res = found["res"] = component_group(tag, phi)
        found["gen"] = next(i for i in range(res.order) if all(
            res.pair_data(i)[0][0][k] == (k + 1) % n for k in range(n)))
        return res.order, res.is_cyclic()

    def ad_twist():
        res, gen = found["res"], found["gen"]
        f_ad = hom_ad(tag, [[1] + [0] * (n - 1)])
        pieces = []
        for rho in relevant_enhancements(tag, phi, res):
            out = conjA_decompose(f_ad, phi, rho)
            pieces.append(([m for _, _, m in out], _angle(rho.values[gen]),
                           _angle(out[0][1].values[gen])))
        return pieces

    def inclusion():
        rho_gl = relevant_enhancements(tag_gl, phi_gl)[0]
        return [m for _, _, m in conjA_decompose(hom_sl_to_gl(n), phi_gl, rho_gl)]

    def weyl():
        point = tuple(Eig.root_of_unity(k, n) for k in range(n))
        return stabilizer_of_point(build_classical("GL", n), point, projective=True).order

    ops = [Op(stabilizer, lambda out: checks.check_sln_stabilizer(n, *out)),
           Op(ad_twist, lambda out: checks.check_ad_twist(n, out)),
           Op(inclusion, lambda out: checks.check_value(
               sorted(out), [1] * n, f"n={n}: inclusion pullback multiplicities"))]
    if n <= 5:
        ops.append(Op(weyl, lambda out: checks.check_value(
            out, n, f"n={n}: Weyl-group stabilizer order")))
    return ops


def pullback(inputs):
    catalogs = {}
    ops = []
    for chain in inputs["chains"]:
        n = chain["n"]
        if n not in catalogs:
            catalogs[n] = _catalog(n, chain["ad"])
        tag, phi = parameter_from_json(chain["param"])
        ops.extend(_chain_ops(catalogs[n][chain["f"]], catalogs[n][chain["q"]],
                              tag, phi, chain["rho_pick"]))
    for entry in inputs["conservation"]:
        n = entry["n"]
        f = hom_sl_to_gl(n) if entry["map"] == "sl_gl" else hom_sl_to_pgl(n)
        tag, phi = parameter_from_json(entry["param"])
        for rho in relevant_enhancements(tag, phi):
            ops.append(_conservation_op(f, tag, phi, rho))
    for n in inputs["sln"]:
        ops.extend(_sln_ops(n))
    return ops


# ---------------------------------------------------------------------------
# cli_session


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:        # argparse refuses with SystemExit(2)
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _root_angle(text: str) -> Fraction | None:
    if text == "1":
        return Fraction(0)
    if text == "-1":
        return Fraction(1, 2)
    if text.startswith("zeta_"):
        n, a = text[5:].split("^")
        return Fraction(int(a), int(n))
    return None


def _degree(char_json) -> int:
    value = char_json[0]        # element 0 is the identity of the tables sent
    return int(Fraction(value["coeffs"][0][1]))


def _reply_check(expect, argv, models, replies):
    """Hold a successful reply to the closed forms in `expect`."""
    def check(out):
        code, stdout, stderr = out
        if expect.get("refused") or expect.get("known_fault"):
            return checks.check_failure_reply(code, stdout, stderr)
        if code != 0:
            return f"{argv[:2]}: exit code {code}: {stderr.strip()}"
        payload = json.loads(stdout)
        replies.append(payload)
        for key, want in expect.items():
            if key in ("roots", "rank"):
                got = payload[key] if isinstance(payload[key], int) else len(payload[key])
            elif key == "angles":
                got = sorted(_root_angle(v) for v in payload["values"])
                want = sorted(Fraction(a) for a in want)
            elif key == "ad_pullback_angle":
                got, want = _root_angle(payload["ad_pullback_shift"]), Fraction(want)
            elif key == "multiplicities":
                got = sorted(o["multiplicity"] for o in payload["outputs"])
            elif key in ("group_order", "classes"):
                err = checks.check_characters(payload["degrees"], expect["group_order"],
                                              expect["classes"])
                if err:
                    return err
                continue
            elif key == "index":
                if _degree(payload["induced"]) != want:
                    return "induced degree differs from the index"
                err = checks.check_conservation(
                    [(_degree(c), m) for c, m in payload["decomposition"]], want, 1)
                if err:
                    return err
                continue
            elif key == "image_of_input":
                model = models[argv[3]]
                got = plain_element(payload["image"], model)
                want = plain_element(json.loads(argv[argv.index("--a") + 1]), model)
            elif key == "at_one":
                model = models[argv[3]]
                elt = plain_element(payload["product"], model)
                got = checks.at_one(elt)
                want = {(tuple(x), model.matrix(w)): Fraction(v) for x, w, v in want}
                if expect["sum_of_previous_two"]:
                    first, second = (plain_element(r["product"], model) for r in list(replies)[:2])
                    err = checks.check_equal(elt, element_sum(first, second),
                                             "hecke mul: distributivity")
                    if err:
                        return err
            elif key == "sum_of_previous_two":
                continue
            else:
                got = payload[key]
            err = checks.check_value(got, want, f"{' '.join(argv[:2])} {key}")
            if err:
                return err
        return None
    return check


def _materialize(argv):
    """Requests whose input the library serializes itself."""
    out = []
    for a in argv:
        if isinstance(a, dict):
            n = a["n"]
            f = {"sl_gl": hom_sl_to_gl, "gl_pgl": hom_gl_to_pgl,
                 "sl_pgl": hom_sl_to_pgl}[a["lattice_map"]](n)
            a = json.dumps(f.lattice_map.to_json())
        out.append(a)
    return out


def cli_session(inputs):
    a1 = SplitModel("A", 1)             # W acts on A1 ad by the same matrices
    models = {"datum:a1sc": a1, "datum:a1ad": a1, "datum:a2sc": SplitModel("A", 2),
              "datum:c2sc": SplitModel("C", 2)}
    replies: deque = deque(maxlen=3)     # the hecke mul group being checked
    ops = []
    for req in inputs["requests"]:
        argv = _materialize(req["argv"])
        ops.append(Op(lambda argv=argv: _cli(argv),
                      _guarded(_reply_check(req["expect"], argv, models, replies)),
                      known_fault=bool(req["expect"].get("known_fault"))))
    return ops


WORKLOADS = {"hecke_kernel": hecke_kernel, "pullback": pullback,
             "cli_session": cli_session}
