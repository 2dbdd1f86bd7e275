"""
Command-line front end.

Verbs: rootdatum, weyl, hecke, finrep, param, pullback, example, selftest.
Inputs are JSON files; a handful of named fixtures are built in, and the
directory named by HECKE_FUNCTOR_FIXTURES (files <name>.json) extends them.
Exit codes: 0 success, 2 validation failure, 1 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import decode
from .finrep import FiniteGroup, RepOrChar, induce, irreducibles
from .functor import (
    conjA_decompose, hom_ad, hom_from_json, hom_sl_to_gl,
    packet_union_check,
)
from .hecke import (
    HeckeElement, HeckeSpec, ad_xg, alpha_g_twist, guard_ad_xg, is_central,
    key_from_json, mul_im, shared_spec,
)
from .lparam import (
    GroupTag, ToyParameter, component_group, parameter_from_json,
    parameter_to_json, relevant_enhancements, tau_character,
)
from .numkernel import Cyclo
from .rootdata import (
    BasedRootDatum, RDMorphism, based_automorphisms, build_classical, dual,
    factorize_condition1, is_condition1,
)
from .weyl import Eig, ExtAffineElt, WeylGroup, length, \
    omega_subgroup, stabilizer_of_point


class ValidationError(ValueError):
    pass


_LIBRARY_ERRORS = tuple([ValueError, KeyError, ZeroDivisionError])


# ---------------------------------------------------------------------------
# fixtures and I/O


_GROUPS = {"s": FiniteGroup.symmetric, "d": FiniteGroup.dihedral, "z": FiniteGroup.cyclic}
# the built-in fixtures, by the kind `decode.fixture` reads off their names
_FIXTURES = {
    "datum": lambda family, n, iso: build_classical(family.upper(), n, iso).to_json(),
    "group": lambda kind, n: _GROUPS[kind](n).to_json(),
    "param": lambda n: parameter_to_json(GroupTag.single("SL", n),
                                         ToyParameter.principal_cycle(GroupTag.single("SL", n))),
}


def _load_json(source: str):
    """Load JSON from an inline literal, a file path, a file in the fixture
    directory, or a built-in fixture name."""
    if source is None:
        raise ValidationError("missing input")
    if source.strip().startswith(("{", "[")):
        return _decode(decode.json_document, source)
    fixtures_dir = os.environ.get("HECKE_FUNCTOR_FIXTURES")
    for path in (source, fixtures_dir and os.path.join(fixtures_dir, source + ".json")):
        if path and os.path.exists(path):
            return _decode(decode.json_document, None, path)
    if ":" in source:
        kind, fields = _decode(decode.fixture, source)
        return _FIXTURES[kind](*fields)
    raise ValidationError(f"no such input: {source!r}")


def _decode(decoder, *args):
    """Run a decoder on outside input; what it refuses is a validation error."""
    try:
        return decoder(*args)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _emit(args, payload):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_render_text(v, indent) if isinstance(v, (dict, list))
                         else f"{pad}- {v}" for v in payload)
    return f"{pad}{payload}"


def _cyclo_str(c: Cyclo) -> str:
    try:
        a, n = c.as_root_of_unity()
        if n == 1:
            return "1"
        if (a, n) == (1, 2):
            return "-1"
        return f"zeta_{n}^{a}"
    except ValueError:
        return repr(c)


# ---------------------------------------------------------------------------
# verbs


def _cmd_rootdatum(args):
    if args.action == "build":
        datum = build_classical(args.family, args.n, args.isogeny)
        return datum.to_json()
    if args.action == "factorize":
        mor = _decode(RDMorphism.from_json, _load_json(args.input))
        verdict = is_condition1(mor)
        if not verdict:
            return {"admissible": False, "reasons": list(verdict.reasons)}
        fact = factorize_condition1(mor)
        return {"admissible": True,
                "torus_rank": fact.torus_rank,
                "kernel_invariants": list(fact.kernel_invariants),
                "f3_char_map": [list(r) for r in fact.f3.char_map],
                "recomposes": fact.recompose().char_map == mor.char_map}
    datum = _decode(BasedRootDatum.from_json, _load_json(args.input))
    if args.action == "validate":
        datum.ensure_valid()
        return {"valid": True, "rank": datum.rank, "roots": len(datum.roots)}
    if args.action == "dual":
        return dual(datum).to_json()
    autos = based_automorphisms(datum)                  # automorphisms
    return {"count": len(autos),
            "char_maps": [[list(r) for r in a.char_map] for a in autos]}


def _cmd_weyl(args):
    datum = _decode(BasedRootDatum.from_json, _load_json(args.input))
    if args.action == "enumerate":
        group = WeylGroup.build(datum)
        return {"order": group.order,
                "words": [list(w) for w in group.words]}
    if args.action == "length":
        group = WeylGroup.build(datum)
        t, wi = _decode(key_from_json, group, _load_json(args.element))
        return {"length": length(ExtAffineElt(t, group.element(wi)), datum)}
    if args.action == "stabilizer":
        pt = _decode(decode.list_of, _load_json(args.point), Eig.from_json, datum.rank,
                     f"a point is a list of {datum.rank} eigenvalues")
        stab = stabilizer_of_point(datum, pt, projective=args.projective)
        return {"order": stab.order,
                "generator_words": [list(g.word) for g in stab.generators]}
    oms = omega_subgroup(datum)                         # omega
    return {"order": len(oms), "elements": [o.to_json() for o in oms]}


def _load_spec(source) -> HeckeSpec:
    """A spec, or the split spec of a bare root datum."""
    data = _load_json(source)
    if decode.obj(data) and "labels" in data:
        return _decode(HeckeSpec.from_json, data)
    return shared_spec(_decode(BasedRootDatum.from_json, data))


def _cmd_hecke(args):
    spec = _load_spec(args.spec)
    a = _decode(HeckeElement.from_json, spec, _load_json(args.a))
    if args.action == "mul":
        b = _decode(HeckeElement.from_json, spec, _load_json(args.b))
        return {"product": mul_im(spec, a, b).to_json()}
    if args.action == "center-check":
        return {"central": is_central(spec, a)}
    if args.action == "ad-xg":
        x_g = _decode(guard_ad_xg, spec, _decode(decode.rationals, args.xg))
        return {"image": ad_xg(spec, x_g)(a).to_json()}
    psi = _decode(decode.list_of, _load_json(args.psi), Cyclo.from_json, None,  # twist
                  "psi is a list of coefficients, one per R-group element")
    target, tw = alpha_g_twist(spec, psi)
    return {"image": tw(a).to_json(),
            "target_cocycle": [[list(k), v.to_json()]
                               for k, v in sorted(target.cocycle.items())]}


def _cmd_finrep(args):
    group = _decode(FiniteGroup.from_json, _load_json(args.group))
    if args.action == "irreducibles":
        chars = irreducibles(group)
        return {"degrees": sorted(c.degree for c in chars),
                "characters": [c.to_json() for c in chars]}
    normal = _decode(decode.index_set, args.normal, group.order)     # induce
    sub_group, _ = _decode(group.subgroup_as_group, normal)
    rho = _decode(RepOrChar.from_json, sub_group, _load_json(args.rho))
    ind, decomp = induce(group, normal, rho)
    return {"induced": ind.to_json(),
            "decomposition": [[c.to_json(), m] for c, m in decomp]}


def _cmd_param(args):
    tag, phi = _decode(parameter_from_json, _load_json(args.param))
    res = component_group(tag, phi)
    if args.action == "component-group":
        return {"order": res.order,
                "cyclic": res.is_cyclic(),
                "quotient_order": res.quotient_order(),
                "group": res.group.to_json()}
    if args.action == "tau":
        tau = tau_character(tag, phi, _decode(decode.int_blocks, args.g), res)
        return {"values": [_cyclo_str(v) for v in tau.values]}
    rel = relevant_enhancements(tag, phi, res)          # enhancements
    return {"count": len(rel),
            "characters": [[_cyclo_str(v) for v in r.values] for r in rel]}


def _cmd_pullback(args):
    f = _decode(hom_from_json, _load_json(args.hom))
    tag, phi = _decode(parameter_from_json, _load_json(args.param))
    if tag != f.target:
        raise ValidationError("parameter tag does not match the map's codomain")
    rel = relevant_enhancements(tag, phi)
    if not 0 <= args.rho < len(rel):
        raise ValidationError(f"rho index out of range (have {len(rel)})")
    out = conjA_decompose(f, phi, rel[args.rho])
    payload = []
    for phi_t, rho_t, m in out:
        payload.append({
            "parameter": parameter_to_json(f.source, phi_t),
            "enhancement": [_cyclo_str(v) for v in rho_t.values],
            "multiplicity": m,
        })
    return {"outputs": payload, "count": len(payload)}


def _cmd_example(args):
    n = args.n
    tag = GroupTag.single("SL", n)
    phi = ToyParameter.principal_cycle(tag)
    res = component_group(tag, phi)
    t_vec = [[1] + [0] * (n - 1)]
    tau = tau_character(tag, phi, t_vec, res)
    gen = next(i for i in range(res.order)
               if all(res.pair_data(i)[0][0][k] == (k + 1) % n for k in range(n)))
    f_ad = hom_ad(tag, t_vec)
    rel = relevant_enhancements(tag, phi, res)
    ad_shift = None
    for rho in rel:
        out = conjA_decompose(f_ad, phi, rho)
        (_, rho_t, m), = out
        ratio = rho_t.values[gen] / rho.values[gen]
        if ad_shift is None:
            ad_shift = _cyclo_str(ratio)
        elif ad_shift != _cyclo_str(ratio):
            ad_shift = "inconsistent"
    f_inc = hom_sl_to_gl(n)
    tag_gl = GroupTag.single("GL", n)
    phi_gl = ToyParameter.make(tag_gl,
                               [[Eig.root_of_unity(k, n) for k in range(n)]])
    rho_gl = relevant_enhancements(tag_gl, phi_gl)[0]
    pullback = conjA_decompose(f_inc, phi_gl, rho_gl)
    return {
        "example": "sln",
        "n": n,
        "stabilizer_order": res.order,
        "stabilizer_cyclic": res.is_cyclic(),
        "quotient": f"Z/{res.quotient_order()}",
        "tau_generator_value": _cyclo_str(tau.values[gen]),
        "ad_pullback_shift": ad_shift,
        "inclusion_pullback_size": len(pullback),
        "inclusion_multiplicities": sorted(m for _, _, m in pullback),
        "packet_union": packet_union_check(f_inc, phi_gl),
        "relevant_enhancements": len(rel),
    }


def _cmd_selftest(args):
    from .acceptance import run_all
    return run_all(verbose=True, seed=args.seed)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing keeps no state in it, so
    every request (a refused one included) leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=None)
    common.add_argument("--out", default=None, help="write output to a file")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks")
    parser = argparse.ArgumentParser(
        prog="hecke-functor",
        parents=[common],
        description="exact computations with based root data, twisted affine "
                    "Hecke algebras and pullbacks of enhanced parameters")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("rootdatum")
    p.add_argument("action", choices=("build", "validate", "dual",
                                      "automorphisms", "factorize"))
    p.add_argument("--family", default="A")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--isogeny", default="sc")
    p.add_argument("--in", dest="input")

    p = add_parser("weyl")
    p.add_argument("action", choices=("enumerate", "length", "stabilizer", "omega"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--element")
    p.add_argument("--point")
    p.add_argument("--projective", action="store_true")

    p = add_parser("hecke")
    p.add_argument("action", choices=("mul", "center-check", "ad-xg", "twist"))
    p.add_argument("--spec", required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--xg")
    p.add_argument("--psi")

    p = add_parser("finrep")
    p.add_argument("action", choices=("irreducibles", "induce"))
    p.add_argument("--group", required=True)
    p.add_argument("--normal")
    p.add_argument("--rho")

    p = add_parser("param")
    p.add_argument("action", choices=("component-group", "tau", "enhancements"))
    p.add_argument("--param", required=True)
    p.add_argument("--g", default="")

    p = add_parser("pullback")
    p.add_argument("--hom", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--rho", type=int, default=0)

    p = add_parser("example")
    p.add_argument("which", choices=("sln",))
    p.add_argument("--n", type=int, default=3)

    add_parser("selftest")
    return parser


_DISPATCH = {
    "rootdatum": _cmd_rootdatum,
    "weyl": _cmd_weyl,
    "hecke": _cmd_hecke,
    "finrep": _cmd_finrep,
    "param": _cmd_param,
    "pullback": _cmd_pullback,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.format = args.format or "json"
    if args.verb == "selftest":
        return _cmd_selftest(args)
    handler = _DISPATCH[args.verb]
    try:
        payload = handler(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except _LIBRARY_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
