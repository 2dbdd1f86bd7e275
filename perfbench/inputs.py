"""Workload inputs, made from the seed alone.

The child process that runs a workload never sees the seed: it receives
the JSON these functions return.  Nothing here imports the library, so the
inputs of a seed stay the same whatever version of the program is measured.

Where the cost of an operation depends strongly on its input or on what
earlier operations left in the library's memos (the presentation
cross-checks, the centrality checks, the parameter shape of a chain), the
inputs are fixed; where costs are alike (basis products, associativity
triples, the contents of CLI requests), the seed draws them.  This keeps
the work of a round, and so `run_s` and the tail latency, the same from
seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from checks import (
    SplitModel, at_one, class_count, diagram_automorphisms, element_sum,
    fundamental_group_order, gl_stabilizer_order, plain_element, root_count,
    weyl_order,
)

# -- hecke_kernel ------------------------------------------------------------

KERNEL_FIXTURES = [("A", 2, 1), ("A", 2, 2), ("C", 2, 1), ("C", 2, 2)]
PRODUCT_LENGTH = 4          # basis products N_a N_b with l(a) + l(b) <= this
PRODUCTS = 150              # sampled per fixture
TRIPLE_LENGTH = 4           # associativity triples with total length <= this
TRIPLES = 150               # sampled per fixture
CENTRE_POINTS = {"A": [(1, 0), (0, 1), (1, 1)], "C": [(1, 0), (0, 1)]}


def _oracle_set(model: SplitModel):
    """Translations x in [-1, 1]^2 against dominant y in {0, 1}^2, with the
    finite parts spread evenly over W on both sides."""
    elements = sorted(model.words.values(), key=lambda w: (len(w), w))
    order = len(elements)
    xs = list(itertools.product(range(-1, 2), repeat=model.rank))
    ys = list(itertools.product(range(2), repeat=model.rank))
    out = []
    for i, (x, y) in enumerate(itertools.product(xs, ys)):
        out.append([list(x), list(elements[i % order]), list(y),
                    list(elements[(i // order + 3 * i) % order])])
    return out


def hecke_kernel(seed: int):
    rng = random.Random(seed)
    fixtures = []
    for family, rank, label in KERNEL_FIXTURES:
        model = SplitModel(family, rank)
        by_len = model.keys_up_to_length(max(PRODUCT_LENGTH, TRIPLE_LENGTH))
        keyed = [(ell, [list(x), list(w)]) for ell in sorted(by_len)
                 for x, w in by_len[ell]]
        pairs = [[a, b] for (la, a), (lb, b) in itertools.product(keyed, repeat=2)
                 if la + lb <= PRODUCT_LENGTH]
        triples = [[a, b, c] for (la, a), (lb, b), (lc, c)
                   in itertools.product(keyed, repeat=3)
                   if la + lb + lc <= TRIPLE_LENGTH]
        fixtures.append({"family": family, "rank": rank, "label": label,
                         "products": rng.sample(pairs, PRODUCTS),
                         "triples": rng.sample(triples, TRIPLES),
                         "oracle": _oracle_set(model),
                         "centre": [list(p) for p in CENTRE_POINTS[family]]})
    return {"fixtures": fixtures}


# -- pullback ----------------------------------------------------------------

# the chain catalog: name -> (domain kind, codomain kind); "+T" adds a torus
CATALOG = {
    "sl_gl": ("SL", "GL"), "gl_pgl": ("GL", "PGL"), "sl_pgl": ("SL", "PGL"),
    "ad_sl": ("SL", "SL"), "ad_gl": ("GL", "GL"), "ad_pgl": ("PGL", "PGL"),
    "dual_gl": ("GL", "GL"), "torus_sl": ("SL", "SL+T"), "torus_gl": ("GL", "GL+T"),
}
CHAIN_RANKS = range(2, 7)
SLN_RANKS = range(2, 9)
CONSERVATION_RANKS = range(2, 8)


def _eig(q=Fraction(0), angle=Fraction(0)):
    return {"q": str(Fraction(q)), "angle": str(Fraction(angle) % 1)}


def _shape(kind: str, n: int, shape: int, scale: Fraction):
    """Five multiplicity-free eigenvalue lists on one factor; the seed scales
    the q-exponents.  PGL lists are moved to determinant one."""
    qs = [Fraction(i) - Fraction(n - 1, 2) for i in range(n)]
    if shape == 0:
        eigs = [(0, Fraction(k, n)) for k in range(n)]
    elif shape == 1:
        eigs = [(q * scale, 0) for q in qs]
    elif shape == 2:
        eigs = [(q * scale, Fraction(k % 2, 2)) for k, q in enumerate(qs)]
    elif shape == 3:
        eigs = [(0, Fraction(k, 2 * n)) for k in range(n)]
    else:
        sq = [Fraction(k * k) for k in range(n)]
        mean = sum(sq) / n
        eigs = [((q - mean) * scale, 0) for q in sq]
    if kind == "PGL":
        tot_q = sum(q for q, _ in eigs) / n
        tot_a = (sum(a for _, a in eigs) % 1) / n
        eigs = [(q - tot_q, a - tot_a) for q, a in eigs]
    return [_eig(q, a) for q, a in eigs]


def _param_json(kind_spec: str, n: int, shape: int, scale: Fraction):
    kind, _, torus = kind_spec.partition("+")
    factors = [{"tag": kind + "n", "n": n, "eigs": _shape(kind, n, shape, scale)}]
    if torus:
        factors.append({"tag": "Torus", "n": 1, "eigs": [_eig()]})
    return {"factors": factors, "zeta": [0] * len(factors)}


def pullback(seed: int):
    rng = random.Random(seed)
    chains = []
    for n in CHAIN_RANKS:
        ad = [0] * n
        while not any(ad):
            ad = [rng.choice((-1, 0, 1, 2)) for _ in range(n)]
        pairs = [(f, q) for f, q in itertools.product(CATALOG, repeat=2)
                 if CATALOG[f][1] == CATALOG[q][0]]
        # a third of the pairs for each n, a different third as n moves, keeps
        # a round short enough for several rounds a run.  The shape decides
        # how many pieces a decomposition has, so how much work a chain
        # costs: it is fixed per chain, and the seed moves the rest
        for i, (f, q) in enumerate(pairs):
            if (i + n) % 3:
                continue
            shape = (i + n) % 5
            scale = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)))
            chains.append({"n": n, "ad": ad, "f": f, "q": q,
                           "param": _param_json(CATALOG[q][1], n, shape, scale),
                           "rho_pick": rng.randrange(1 << 16)})
    conservation = []
    for n in CONSERVATION_RANKS:
        cycle = [Fraction(k, n) for k in range(n)]
        conservation.append({"n": n, "map": "sl_gl", "param": {
            "factors": [{"tag": "GLn", "n": n, "eigs": [_eig(0, a) for a in cycle]}],
            "zeta": [0]}})
        if n % 2 == 0:
            # a determinant-one multiplicity-free list for even n
            cycle = [Fraction(2 * k + 1, 2 * n) for k in range(n)]
            total = sum(cycle) % 1
            cycle = [a - total / n for a in cycle]
        conservation.append({"n": n, "map": "sl_pgl", "param": {
            "factors": [{"tag": "PGLn", "n": n, "eigs": [_eig(0, a) for a in cycle]}],
            "zeta": [0]}})
    return {"chains": chains, "conservation": conservation, "sln": list(SLN_RANKS)}


# -- cli_session -------------------------------------------------------------

KNOWN_FAULTS = [
    ["weyl", "stabilizer", "--in", "datum:gl3", "--point", "[[0,0],[0,0],[0,0]]"],
    ["hecke", "mul", "--spec", "datum:a2sc", "--a", "[[1,2]]", "--b", "[]"],
    ["rootdatum", "factorize", "--in", '{"source":1}'],
    ["weyl", "length", "--in", "datum:a2sc", "--element", '{"t":[0],"w_word":[3]}'],
    ["finrep", "irreducibles", "--group", '{"table":[[0,1],[1,1]]}'],
]
# the requests of one round: kind -> the size of each request of that kind.
# Sizes are fixed, so a round costs about the same on every seed; the seed
# picks the contents (points, elements, groups) and the order.
MIX = {
    "build": [("A", 3), ("B", 4), ("C", 3), ("D", 4), ("GL", 4), ("A", 5)],
    "validate": [("A", 2), ("B", 3), ("C", 3), ("D", 4)],
    "dual": [("A", 3), ("B", 2), ("C", 3)],
    "automorphisms": [("A", 2), ("D", 4), ("B", 3), ("GL", 4)],
    "factorize": [3, 4, 5],
    "enumerate": [("A", 3), ("B", 3), ("C", 2), ("A", 2)],
    "length": [("A", 2), ("C", 2), ("B", 2), ("A", 3), ("A", 2), ("C", 2)],
    "stabilizer": [(3, 2), (4, 2), (5, 3), (4, 4)],   # (n, distinct values)
    "omega": [("A", 2), ("B", 3), ("C", 3), ("A", 3)],
    "hecke_mul": [("A", 2), ("C", 2), ("A", 1), ("A", 2)],
    "center": [("A", 2, "scalar"), ("C", 2, "N_s"), ("A", 1, "theta"),
               ("A", 2, "N_s"), ("C", 2, "theta"), ("A", 1, "scalar")],
    "adxg": ["a1sc", "a1ad", "a1sc", "a1ad"],
    "irreducibles": [("dihedral", 4), ("symmetric", 4), ("product", 3), ("cyclic", 8),
                     ("dihedral", 5), ("cyclic", 12)],
    "induce": [4, 6, 8, 12],
    "component": [3, 4, 5, 6],
    "tau": [3, 4, 5, 6],
    "enhancements": [3, 4, 5, 6],
    "pullback": [2, 3, 4, 5],
    "example": [3, 4, 5],
    "malformed": ["bad_json", "negative_rank", "rank_too_big", "unknown_family",
                  "no_such_input", "short_list", "negative_n", "short_point",
                  "bad_pairing", "tag_mismatch", "short_cocharacter", "not_a_group"],
}


# a round sends the mix this many times, each with its own contents.  What a
# request costs depends on its contents and on what the requests before it
# left in the library's caches, so the slowest tenth of one mix moved from
# seed to seed: op_tail_ms spread by 11 % over ten seeds with one mix a round
MIX_REPEATS = 4


def _fixture(family, n, iso="sc"):
    return f"datum:{family.lower()}{n}{iso}"


def _poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[rng.randint(-2, 2)] = rng.choice((-2, -1, 1, 3))
    return {"vars": ["z"],
            "terms": [[[e], {"n": 1, "coeffs": [[0, str(c)]]}]
                      for e, c in sorted(terms.items())]}


def _element(rng, model):
    words = sorted(model.words.values())
    keys = {}
    while len(keys) < 2:
        x = tuple(rng.randint(-1, 1) for _ in range(model.rank))
        keys[(x, rng.choice(words))] = _poly(rng)
    return [[{"t": list(x), "w_word": list(w)}, p] for (x, w), p in keys.items()]


def _element_json(elt, model):
    """The JSON form of {(x, matrix): {exponent: coefficient}}."""
    return [[{"t": list(x), "w_word": list(model.words[m])},
             {"vars": ["z"], "terms": [[[e], {"n": 1, "coeffs": [[0, str(c)]]}]
                                       for e, c in sorted(poly.items())]}]
            for (x, m), poly in elt.items()]


def _table(elems, mul):
    index = {e: i for i, e in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def _group_table(rng, kind, n):
    """A group as an explicit multiplication table, its elements labelled in
    a seeded order with the identity first."""
    if kind == "dihedral":
        elems = [(r, f) for f in (0, 1) for r in range(n)]
        mul = lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % n, (a[1] + b[1]) % 2)
    elif kind == "symmetric":
        elems = list(itertools.permutations(range(n)))
        mul = lambda a, b: tuple(a[b[i]] for i in range(n))
    elif kind == "product":
        elems = list(itertools.product(range(n - 1), range(n)))
        mul = lambda x, y: ((x[0] + y[0]) % (n - 1), (x[1] + y[1]) % n)
    else:
        elems = list(range(n))
        mul = lambda x, y: (x + y) % n
    rest = elems[1:]
    rng.shuffle(rest)
    return _table(elems[:1] + rest, mul)


def _request(rng, kind, size, models, iso):
    """One request of the given kind and size: its argv and the expectation
    its reply is held to.  `iso` is the isogeny of the root datum, where the
    request takes one."""
    if kind == "build":
        fam, n = size
        argv = ["rootdatum", "build", "--family", fam, "--n", str(n),
                "--isogeny", iso]
        return argv, {"roots": root_count(fam, n), "rank": n}
    if kind == "validate":
        fam, n = size
        return (["rootdatum", "validate", "--in", _fixture(fam, n, iso)],
                {"roots": root_count(fam, n), "rank": n})
    if kind == "dual":
        fam, n = size
        return (["rootdatum", "dual", "--in", _fixture(fam, n, iso)],
                {"roots": root_count(fam, n), "rank": n})
    if kind == "automorphisms":
        fam, n = size
        src = f"datum:gl{n}" if fam == "GL" else _fixture(fam, n, iso)
        return (["rootdatum", "automorphisms", "--in", src],
                {"count": diagram_automorphisms(fam, n)})
    if kind == "factorize":
        # the morphism is serialized by the library itself, in the child
        n = size
        which = rng.choice(("sl_gl", "gl_pgl", "sl_pgl"))
        expect = {"sl_gl": (1, [n]), "gl_pgl": (0, []), "sl_pgl": (0, [n])}[which]
        return (["rootdatum", "factorize", "--in", {"lattice_map": which, "n": n}],
                {"admissible": True, "recomposes": True, "torus_rank": expect[0],
                 "kernel_invariants": expect[1]})
    if kind == "enumerate":
        fam, n = size
        return (["weyl", "enumerate", "--in", _fixture(fam, n, iso)],
                {"order": weyl_order(fam, n)})
    if kind == "length":
        fam, n = size
        model = models[size]
        x = [rng.randint(-3, 3) for _ in range(n)]
        word = rng.choice(sorted(model.words.values()))
        element = json.dumps({"t": x, "w_word": list(word)})
        return (["weyl", "length", "--in", _fixture(fam, n), "--element", element],
                {"length": model.length(tuple(x), model.matrix(word))})
    if kind == "stabilizer":
        n, m = size
        values = [Fraction(a, m) for a in range(m)]
        point = values + [rng.choice(values) for _ in range(n - m)]
        rng.shuffle(point)
        pts = json.dumps([_eig(0, a) for a in point])
        return (["weyl", "stabilizer", "--in", f"datum:gl{n}", "--point", pts],
                {"order": gl_stabilizer_order(point)})
    if kind == "omega":
        fam, n = size
        return (["weyl", "omega", "--in", _fixture(fam, n, iso)],
                {"order": fundamental_group_order(fam, n, iso)})
    if kind == "center":
        fam, n, which = size
        if which == "scalar":       # central
            elt = [[{"t": [0] * n, "w_word": []}, _poly(rng)]]
        elif which == "N_s":        # not central
            elt = [[{"t": [0] * n, "w_word": [rng.randrange(n)]}, _poly(rng)]]
        else:                       # theta_x, x dominant and nonzero: not central
            x = [0] * n
            while not any(x):
                x = [rng.randint(0, 2) for _ in range(n)]
            elt = [[{"t": x, "w_word": []}, _poly(rng)]]
        return (["hecke", "center-check", "--spec", _fixture(fam, n),
                 "--a", json.dumps(elt)], {"central": which == "scalar"})
    if kind == "adxg":
        # theta_y is fixed by every Ad(x_g); the vector is fractional on A1 ad
        x_g = (str(rng.randint(-2, 2)) if size == "a1sc"
               else str(Fraction(rng.randint(-3, 3), 2)))
        elt = [[{"t": [rng.randint(0, 2)], "w_word": []}, _poly(rng)]]
        return (["hecke", "ad-xg", "--spec", f"datum:{size}", f"--xg={x_g}",
                 "--a", json.dumps(elt)], {"image_of_input": True})
    if kind == "irreducibles":
        table = _group_table(rng, *size)
        return (["finrep", "irreducibles", "--group", json.dumps({"table": table})],
                {"group_order": len(table), "classes": class_count(table)})
    if kind == "induce":
        m = size
        d = rng.choice([d for d in range(2, m) if m % d == 0])
        table = _table(list(range(m)), lambda x, y: (x + y) % m)
        normal = list(range(0, m, d))
        trivial = [{"n": 1, "coeffs": [[0, "1"]]}] * len(normal)
        return (["finrep", "induce", "--group", json.dumps({"table": table}),
                 "--normal", ",".join(map(str, normal)), "--rho", json.dumps(trivial)],
                {"index": d})
    if kind == "component":
        n = size
        return (["param", "component-group", "--param", f"param:sln{n}"],
                {"order": n, "cyclic": True, "quotient_order": n})
    if kind == "tau":
        n = size
        return (["param", "tau", "--param", f"param:sln{n}",
                 "--g", ",".join(["1"] + ["0"] * (n - 1))],
                {"angles": [str(Fraction(k, n)) for k in range(n)]})
    if kind == "enhancements":
        n = size
        return (["param", "enhancements", "--param", f"param:sln{n}"], {"count": n})
    if kind == "pullback":
        n = size
        hom = {"steps": [{"kind": "sl_gl", "dom": [["SL", n]], "dom_zeta": [0]}]}
        param = {"factors": [{"tag": "GLn", "n": n,
                              "eigs": [_eig(0, Fraction(k, n)) for k in range(n)]}],
                 "zeta": [0]}
        return (["pullback", "--hom", json.dumps(hom), "--param", json.dumps(param),
                 "--rho", "0"], {"count": n, "multiplicities": [1] * n})
    if kind == "example":
        n = size
        return (["example", "sln", "--n", str(n)],
                {"stabilizer_order": n, "stabilizer_cyclic": True,
                 "quotient": f"Z/{n}", "inclusion_pullback_size": n,
                 "inclusion_multiplicities": [1] * n, "packet_union": True,
                 "relevant_enhancements": n, "ad_pullback_angle": str(Fraction(1, n))})
    raise ValueError(kind)


def _malformed(rng, shape):
    """A request the CLI must refuse with exit code 1 or 2 and one line.
    Sizes are small and fixed; the seed only varies text that costs nothing."""
    k = rng.randint(1, 9)
    return {
        "bad_json": ["rootdatum", "validate", "--in", "{bad" + "x" * k],
        "negative_rank": ["rootdatum", "build", "--family", "A", "--n", str(-k)],
        "rank_too_big": ["rootdatum", "build", "--family", "GL", "--n", str(8 + k)],
        "unknown_family": ["weyl", "enumerate", "--in", f"datum:e{k}sc"],
        "no_such_input": ["param", "component-group", "--param", f"no-such-input-{k}"],
        "short_list": ["param", "component-group", "--param", json.dumps(
            {"factors": [{"tag": "SLn", "n": 3, "eigs": [_eig(0, Fraction(1, k + 1))]}],
             "zeta": [0]})],
        "negative_n": ["example", "sln", "--n", str(-k)],
        "short_point": ["weyl", "stabilizer", "--in", "datum:gl3", "--point",
                        json.dumps([_eig(0, Fraction(1, k + 1))])],
        "bad_pairing": ["rootdatum", "validate", "--in", json.dumps(
            {"rank": 1, "roots": [[k + 2], [-k - 2]], "coroots": [[1], [-1]],
             "simples": [0]})],
        "tag_mismatch": ["pullback", "--hom", json.dumps(
            {"steps": [{"kind": "sl_gl", "dom": [["SL", 3]], "dom_zeta": [0]}]}),
            "--param", "param:sln3"],
        "short_cocharacter": ["param", "tau", "--param", "param:sln3", "--g", f"{k},0"],
        "not_a_group": ["finrep", "irreducibles", "--group", json.dumps(
            {"table": [[(i + j) % 3 for j in range(3)] for i in range(3)] + [[0] * 3]})],
    }[shape]


def _hecke_mul_group(rng, fam, n, model):
    """a b, a c and a (b + c): each held to its z = 1 limit, the last also
    to the sum of the first two."""
    a, b, c = (_element(rng, model) for _ in range(3))
    b_plus_c = _element_json(element_sum(plain_element(b, model),
                                         plain_element(c, model)), model)
    group = []
    for right in (b, c, b_plus_c):
        expect = {}
        for (ka, pa), (kb, pb) in itertools.product(
                at_one(plain_element(a, model)).items(),
                at_one(plain_element(right, model)).items()):
            k = model.product(ka, kb)
            expect[k] = expect.get(k, 0) + pa * pb
        group.append({"argv": ["hecke", "mul", "--spec", _fixture(fam, n),
                               "--a", json.dumps(a), "--b", json.dumps(right)],
                      "expect": {"at_one": [[list(x), list(model.words[w]), str(v)]
                                            for (x, w), v in expect.items() if v],
                                 "sum_of_previous_two": len(group) == 2}})
    return group


def cli_session(seed: int):
    rng = random.Random(seed)
    models = {t: SplitModel(*t) for t in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)]}
    groups = []          # a group is a list of requests kept together, in order
    for copy in range(MIX_REPEATS):
        for kind, sizes in MIX.items():
            for i, size in enumerate(sizes):
                if kind == "malformed":
                    groups.append([{"argv": _malformed(rng, size),
                                    "expect": {"refused": True}}])
                elif kind == "hecke_mul":
                    groups.append(_hecke_mul_group(rng, *size, models[size]))
                else:
                    # the isogeny changes what a request costs, so each size
                    # gets each isogeny in half the copies, on every seed
                    iso = ("sc", "ad")[(copy + i) % 2]
                    argv, expect = _request(rng, kind, size, models, iso)
                    groups.append([{"argv": argv, "expect": expect}])
        for argv in KNOWN_FAULTS:
            groups.append([{"argv": argv, "expect": {"known_fault": True}}])
    rng.shuffle(groups)
    return {"requests": [r for g in groups for r in g]}


WORKLOADS = {"hecke_kernel": hecke_kernel, "pullback": pullback,
             "cli_session": cli_session}
