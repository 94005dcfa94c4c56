"""The input layer's two paths give the same results.

`read_dimacs` reads a text in the layout `write_dimacs` writes by
columns, and every other text line by line; `build_network` checks an
arc list in bulk, and runs its per-arc loop only when a bulk check
fails.  On seeded inputs of every kind, and on one mutation of each,
the fast path must give the network the loop gives (n, source, sink,
arcs, ints, scale, gadget vertices and arc lookups), or the loop's
error (type, message, line or ``at``).  The reference runs the loops
alone: `_read_lines` with `build_network`'s bulk checks switched off.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from flowkit import network
from flowkit.network import build_network, read_dimacs, write_dimacs
from flowkit.values import UNBOUNDED
from test_values import TOKENS


@pytest.fixture
def loops_only(monkeypatch):
    """A context in which `build_network` checks every arc list arc by arc."""
    @contextmanager
    def switched_off():
        with monkeypatch.context() as patch:
            patch.setattr(network, "_arcs_in_bulk", lambda *args: None)
            yield
    return switched_off


def outcome(build, *args, **kwargs):
    """What `build` gives: the network's fields and arc lookups, or the
    error's type, message, line and ``at``."""
    try:
        net = build(*args, **kwargs)
    except Exception as exc:  # every error, typed or not, must be the loop's
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "at", None)
    lookups = [(net.has_arc(u, v), net.has_arc(v, u)) for (u, v) in net.arcs]
    return (net.n, net.source, net.sink, net.arcs, net.ints, net.scale,
            net.gadget_vertices, lookups)


# -- read_dimacs ----------------------------------------------------------


KINDS = ("integer", "rational", "unreduced", "zeros", "zero")


def _capacity(rng, kind):
    if kind == "integer":
        return Fraction(rng.randint(0, 30))
    if kind == "zero":
        return Fraction(rng.choice([0, 0, 0, rng.randint(1, 9)]))
    if kind == "rational":  # denominators coprime but for 1
        return Fraction(rng.randint(0, 60), rng.choice([1, 7, 11, 13, 17]))
    return Fraction(rng.randint(0, 40), rng.randint(1, 9))


def _token(rng, kind, x):
    """A token for x as `write_dimacs` writes it, or unreduced, or padded."""
    if kind == "unreduced":
        k = rng.randint(2, 6)
        return f"{x.numerator * k}/{x.denominator * k}"
    if kind == "zeros":
        pad = "0" * rng.randint(1, 3)
        if x.denominator == 1 and rng.random() < 0.5:
            return f"{pad}{x.numerator}"
        return f"{pad}{x.numerator}/{pad}{x.denominator}"
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def base_text(rng):
    """A network written by `write_dimacs`, its tokens rewritten by kind,
    maybe its `n` lines swapped and a comment block in front: the lines,
    the index of the `p` line, and n, s, t."""
    kind = rng.choice(KINDS)
    n = rng.randint(4, 10)
    s, t = rng.sample(range(1, n + 1), 2)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and v != s and u != t and rng.random() < 0.4]
    pairs = [(u, v) for (u, v) in pairs if u < v or (v, u) not in pairs] or [(s, t)]
    rng.shuffle(pairs)
    net = build_network(n, s, t, [(u, v, _capacity(rng, kind)) for (u, v) in pairs])
    lines = write_dimacs(net).splitlines()
    for i in range(3, len(lines)):
        a, u, v, token = lines[i].split()
        lines[i] = f"a {u} {v} {_token(rng, kind, Fraction(token))}"
    if rng.random() < 0.5:
        lines[1], lines[2] = lines[2], lines[1]
    comments = rng.choice([[], [], ["c"], [f"c {kind} network", "cc", "c  p max 9 9 ~!"]])
    return comments + lines, len(comments), n, s, t


def _arc_line(lines, p, rng):
    i = rng.randrange(p + 3, len(lines))
    return i, lines[i].split()


def _add_arcs(lines, p, new, rng):
    """Insert arc lines among the others and raise the `p` line's count
    to match."""
    _, _, n, m = lines[p].split()
    lines[p] = f"p max {n} {int(m) + len(new)}"
    for line in new:
        lines.insert(rng.randrange(p + 3, len(lines) + 1), line)


def mutate(kind, lines, p, n, s, t, rng):
    """One mutation of `kind`; returns the text."""
    end = "\n"
    if kind == "inner comment":
        lines.insert(rng.randrange(p + 1, len(lines) + 1), rng.choice(["c inner", "c", "comment"]))
    elif kind == "blank line":
        lines.insert(rng.randrange(0, len(lines) + 1), rng.choice(["", "   "]))
    elif kind == "tab":
        i = rng.randrange(p, len(lines))
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif kind == "crlf":
        end = "\r\n"
    elif kind == "no final newline":
        return "\n".join(lines)
    elif kind == "token":
        i, (_, u, v, _) = _arc_line(lines, p, rng)
        # or 5,001 digits, more than `int` converts
        token = rng.choice(TOKENS) if rng.random() < 0.9 else "1" + "0" * 5000
        lines[i] = f"a {u} {v} {token}".rstrip()
    elif kind == "wrong m":
        _, _, size, m = lines[p].split()
        lines[p] = f"p max {size} {int(m) + rng.choice([-1, 1, 2])}"
    elif kind == "bad n line":
        i = p + rng.choice([1, 2])
        _, vid, role = lines[i].split()
        lines[i] = rng.choice([f"n x {role}", f"n {vid} q", f"n {vid}", f"n {vid} {role} s",
                               f"n -{vid} {role}", f"n {n + 1} {role}", f"n 0 {role}"])
    elif kind == "duplicated n line":
        i = p + rng.choice([1, 2])
        if rng.random() < 0.5:
            lines.insert(rng.randrange(i + 1, len(lines) + 1), lines[i])
        else:  # the other `n` line names the same role
            other = p + 3 - (i - p)
            lines[other] = " ".join(lines[other].split()[:2] + [lines[i].split()[2]])
    elif kind == "n before p":
        lines[p], lines[p + 1] = lines[p + 1], lines[p]
    elif kind == "out of range":
        i, (_, u, v, c) = _arc_line(lines, p, rng)
        bad = rng.choice([0, n + 1, n + 7])
        lines[i] = f"a {bad} {v} {c}" if rng.random() < 0.5 else f"a {u} {bad} {c}"
    elif kind == "self-loop":
        i, (_, u, v, c) = _arc_line(lines, p, rng)
        lines[i] = f"a {u} {u} {c}"
    elif kind == "into s":
        i, (_, u, v, c) = _arc_line(lines, p, rng)
        lines[i] = f"a {u if int(u) != s else t} {s} {c}"
    elif kind == "out of t":
        i, (_, u, v, c) = _arc_line(lines, p, rng)
        lines[i] = f"a {t} {v if int(v) != t else s} {c}"
    elif kind == "repeated":
        _, (_, u, v, _) = _arc_line(lines, p, rng)
        _add_arcs(lines, p, [f"a {u} {v} {rng.randint(0, 9)}"], rng)
    elif kind == "antiparallel":
        a, b = rng.sample([v for v in range(1, n + 1) if v not in (s, t)], 2)
        arcs = {tuple(line.split()[1:3]) for line in lines[p + 3:]}
        if (str(a), str(b)) in arcs or (str(b), str(a)) in arcs:
            if (str(b), str(a)) in arcs:
                a, b = b, a
            new = [f"a {b} {a} {rng.randint(0, 9)}/{rng.randint(1, 5)}"]
        else:
            new = [f"a {a} {b} {rng.randint(0, 9)}", f"a {b} {a} {rng.randint(0, 9)}"]
        _add_arcs(lines, p, new, rng)
    return end.join(lines) + end


MUTATIONS = ("inner comment", "blank line", "tab", "crlf", "no final newline", "token",
             "wrong m", "bad n line", "duplicated n line", "n before p", "out of range",
             "self-loop", "into s", "out of t", "repeated", "antiparallel")


def test_read_dimacs_by_columns_gives_what_the_line_loop_gives(loops_only):
    """2,400 written networks as they are, and 2,400 with one mutation
    each, in both modes: `read_dimacs` gives the line loop's network or
    its error, whichever path it takes."""
    paths, faults = Counter(), Counter()
    for seed in range(2400):
        rng = random.Random(seed)
        lines, p, n, s, t = base_text(rng)
        kind = MUTATIONS[seed % len(MUTATIONS)]
        mutated = mutate(kind, list(lines), p, n, s, t, rng)
        allow = seed // len(MUTATIONS) % 2 == 1
        for text in ("\n".join(lines) + "\n", mutated):
            got = outcome(read_dimacs, text, allow_antiparallel=allow)
            with loops_only():
                want = outcome(network._read_lines, text, allow)
            assert got == want, (seed, kind, allow, text)
            if network._read_columns(text, allow):
                paths["columns"] += 1
            else:  # the layout's count or network check failed, or another layout
                paths["lines"] += 1
                paths["layout, to lines"] += network._LAYOUT.fullmatch(text) is not None
        faults[kind] += 1
    assert paths["columns"] >= 2400 and paths["lines"] >= 500, paths
    assert paths["layout, to lines"] >= 500, paths
    assert min(faults.values()) >= 150 and len(faults) == len(MUTATIONS), faults


def test_the_sample_and_a_commented_written_network_take_the_column_path():
    sample = (Path(__file__).resolve().parent.parent / "samples" / "net.dimacs").read_text()
    assert network._read_columns(sample, False) == read_dimacs(sample)
    text = "c\nc written\n" + write_dimacs(build_network(3, 1, 3, [(1, 2, "7/3"), (2, 3, 1)]))
    assert network._read_columns(text, False) == read_dimacs(text)


# -- build_network ----------------------------------------------------------


FORMS = ("ints over a scale", "fractions", "strings", "unbounded and floats", "gadgets")


def _form_capacity(rng, form):
    x = Fraction(rng.randint(0, 40), rng.choice([1, 1, 3, 7, 12]))
    if form == "fractions":
        return x if rng.random() < 0.7 else x.numerator
    if form == "strings":
        return rng.choice([f"{x.numerator}/{x.denominator}", str(x.numerator)])
    if form == "unbounded and floats":
        return rng.choice([UNBOUNDED, 0.5, 2.0, True]) if rng.random() < 0.05 else x
    return rng.randint(0, 40)


ARC_FAULTS = ("out of range", "self-loop", "into s", "out of t", "repeated",
              "antiparallel", "negative", "bad token", "float endpoint", "not a triple")


def arc_list(rng, form, fault):
    n = rng.randint(4, 12)
    s, t = rng.sample(range(1, n + 1), 2)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and v != s and u != t and rng.random() < 0.35]
    if form != "gadgets":
        pairs = [(u, v) for (u, v) in pairs if u < v or (v, u) not in pairs]
    pairs = pairs or [(s, t)]
    rng.shuffle(pairs)
    arcs = [(u, v, _form_capacity(rng, form)) for (u, v) in pairs]
    k = rng.randrange(len(arcs))
    u, v, c = arcs[k]
    if fault == "out of range":
        arcs[k] = (rng.choice([0, n + 1, -2]), v, c) if rng.random() < 0.5 else (u, n + 3, c)
    elif fault == "self-loop":
        arcs[k] = (v, v, c)
    elif fault == "into s":
        arcs[k] = (u if u != s else t, s, c)
    elif fault == "out of t":
        arcs[k] = (t, v if v != t else s, c)
    elif fault == "repeated":
        arcs.insert(rng.randrange(k + 1, len(arcs) + 1), (u, v, c))
    elif fault == "antiparallel" and u != s and v != t:
        arcs.insert(rng.randrange(len(arcs) + 1), (v, u, c))
    elif fault == "negative":
        arcs[k] = (u, v, -1 if form == "ints over a scale" else Fraction(-1, 3))
    elif fault == "bad token":
        arcs[k] = (u, v, rng.choice(["1/0", "x", "", "-2/3"]))
    elif fault == "float endpoint":
        arcs[k] = (float(u), v, c)
    elif fault == "not a triple":
        arcs[k] = rng.choice([(u, v), (u, v, c, c), u])
    return n, s, t, arcs


def test_build_network_in_bulk_gives_what_the_arc_loop_gives(loops_only):
    """Seeded arc lists of every caller's form, each with one fault or
    none, in both modes: the same network or the same error."""
    tally = Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        form = FORMS[seed % len(FORMS)]
        fault = "none" if seed % 2 else ARC_FAULTS[seed // 2 % len(ARC_FAULTS)]
        n, s, t, arcs = arc_list(rng, form, fault)
        kwargs = {"allow_antiparallel": form == "gadgets" and rng.random() < 0.8}
        if form == "ints over a scale":
            kwargs["scale"] = rng.choice([1, 6, 35])
        got = outcome(build_network, n, s, t, arcs, **kwargs)
        with loops_only():
            want = outcome(build_network, n, s, t, arcs, **kwargs)
        assert got == want, (seed, form, fault, arcs, kwargs)
        bulk = network._arcs_in_bulk(n, s, t, arcs, kwargs["allow_antiparallel"],
                                     kwargs.get("scale"))
        tally[form, "bulk" if bulk is not None else "loop"] += 1
        if isinstance(got[0], int) and got[6]:
            tally["gadgets built"] += 1
    # a `p/q` string always goes to the loop, which reads it
    assert all(tally[form, "loop"] >= 100 for form in FORMS), tally
    assert all(tally[form, "bulk"] >= 100 for form in FORMS if form != "strings"), tally
    assert tally["strings", "bulk"] == 0 < tally["strings", "loop"], tally
    assert tally["gadgets built"] >= 100, tally


def test_a_network_built_in_bulk_hands_its_arc_set_over():
    net = build_network(4, 1, 4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert net._arc_set == frozenset(net.arcs)
    assert net.has_arc(2, 3) and not net.has_arc(3, 2)
