"""Independent exact checks of the CLI's outputs.

Nothing here imports flowkit.  Every optimal value a check compares
against comes from :func:`reference_maxflow`, an integer-scaled
augmenting-path solver whose answer is certified by a feasible flow and a
cut of equal capacity.  Each check raises :class:`CheckError` naming the
first thing that is wrong.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from corpus import PENALTY, Complex, GradedPoset, Image, Net


class CheckError(Exception):
    pass


def _value(token):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a rational value: {token!r}")


def _records(text, kind, width=None):
    """Fields after the first of every line whose first field is ``kind``,
    each line holding ``width`` fields when given."""
    out = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == kind:
            if width is not None and len(fields) != width:
                raise CheckError(f"malformed line {line!r}")
            out.append(fields[1:])
    return out


def _one_value(text, kind):
    rows = _records(text, kind, 2)
    if len(rows) != 1:
        raise CheckError(f"expected one `{kind}` line, found {len(rows)}")
    return _value(rows[0][0])


# -- certified maximum flow -------------------------------------------------


def reference_maxflow(n, s, t, arcs):
    """Exact maximum flow value and a minimum cut's source side.

    Capacities are scaled by the LCM of their denominators and the solver
    runs breadth-first augmenting paths on Python ints over paired
    forward/reverse arc slots, so antiparallel arcs need no subdivision.
    The result is certified before it is returned: the flow respects
    every capacity and conserves at every inner vertex, and the residual
    cut has the flow's value.
    """
    scale = 1
    for (_, _, c) in arcs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    cap = []
    head = []
    adj = [[] for _ in range(n + 1)]
    for (u, v, c) in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(int(c * scale))
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
    res = list(cap)
    value = 0
    while True:
        via = {s: None}
        queue = deque([s])
        while queue and t not in via:
            u = queue.popleft()
            for e in adj[u]:
                if res[e] > 0 and head[e] not in via:
                    via[head[e]] = e
                    queue.append(head[e])
        if t not in via:
            break
        path = []
        v = t
        while via[v] is not None:
            path.append(via[v])
            v = head[via[v] ^ 1]
        amount = min(res[e] for e in path)
        for e in path:
            res[e] -= amount
            res[e ^ 1] += amount
        value += amount
    side = set(via)
    flow = [cap[2 * k] - res[2 * k] for k in range(len(arcs))]
    balance = [0] * (n + 1)
    for k, (u, v, _) in enumerate(arcs):
        if not 0 <= flow[k] <= cap[2 * k]:
            raise CheckError(f"reference flow breaks the capacity of ({u}, {v})")
        balance[u] -= flow[k]
        balance[v] += flow[k]
    if any(balance[v] for v in range(1, n + 1) if v not in (s, t)) or balance[t] != value:
        raise CheckError("reference flow does not conserve")
    cut = sum(cap[2 * k] for k, (u, v, _) in enumerate(arcs) if u in side and v not in side)
    if cut != value or t in side:
        raise CheckError("reference cut does not certify the reference flow")
    return Fraction(value, scale), side


def image_arcs(img):
    """The segmentation network of an image: pixel k is vertex k+1; s->p
    carries the foreground probability, p->t the background one, and each
    4-neighbour pair is an antiparallel pair carrying the penalty."""
    w, h = img.width, img.height
    s, t = w * h + 1, w * h + 2
    arcs = []
    for y in range(h):
        for x in range(w):
            p = y * w + x + 1
            fg = Fraction(img.rows[y][x], img.maxval)
            arcs += [(s, p, fg), (p, t, 1 - fg)]
            if x + 1 < w:
                arcs += [(p, p + 1, PENALTY), (p + 1, p, PENALTY)]
            if y + 1 < h:
                arcs += [(p, p + w, PENALTY), (p + w, p, PENALTY)]
    return w * h + 2, s, t, arcs


def certified_value(instance):
    """The optimum every output for this instance must reach."""
    if isinstance(instance, Net):
        return reference_maxflow(instance.n, instance.s, instance.t, instance.arcs)[0]
    if isinstance(instance, Image):
        return reference_maxflow(*image_arcs(instance))[0]
    if isinstance(instance, GradedPoset):
        index = {e: i + 1 for i, e in enumerate(instance.elements)}
        arcs = [(index[a], index[b], Fraction(1)) for (a, b) in instance.covers]
        return reference_maxflow(len(index), index[instance.bottom], index[instance.top], arcs)[0]
    if isinstance(instance, Complex) and instance.graph is not None:
        return certified_value(instance.graph)
    return None


# -- per-command checks -----------------------------------------------------


def check_flow(net, text, optimum):
    """Capacity, conservation, the `s` line, and the max-flow/min-cut
    certificate: the sink is unreachable in the residual graph."""
    arc_cap = {(u, v): c for (u, v, c) in net.arcs}
    flow = {}
    for fields in _records(text, "f", 4):
        u, v, x = int(fields[0]), int(fields[1]), _value(fields[2])
        if (u, v) not in arc_cap or (u, v) in flow:
            raise CheckError(f"flow line for ({u}, {v}) is not a new arc")
        if not 0 < x <= arc_cap[(u, v)]:
            raise CheckError(f"flow {x} on ({u}, {v}) outside (0, {arc_cap[(u, v)]}]")
        flow[(u, v)] = x
    balance = {}
    for (u, v), x in flow.items():
        balance[u] = balance.get(u, 0) - x
        balance[v] = balance.get(v, 0) + x
    for v, b in balance.items():
        if v not in (net.s, net.t) and b != 0:
            raise CheckError(f"flow does not conserve at {v}")
    stated = _one_value(text, "s")
    if stated != -balance.get(net.s, 0):
        raise CheckError(f"`s {stated}` differs from the source outflow")
    if stated != optimum:
        raise CheckError(f"flow value {stated} differs from the certified {optimum}")
    residual = {}
    for (u, v), c in arc_cap.items():
        x = flow.get((u, v), 0)
        if x < c:
            residual.setdefault(u, []).append(v)
        if x > 0:
            residual.setdefault(v, []).append(u)
    seen = {net.s}
    queue = deque([net.s])
    while queue:
        for w in residual.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if net.t in seen:
        raise CheckError("the sink is reachable in the residual graph")


def check_mincut(net, text, optimum):
    side = {int(fields[0]) for fields in _records(text, "v", 2)}
    if net.s not in side or net.t in side or not side <= set(range(1, net.n + 1)):
        raise CheckError("source side must hold s, not t, and only vertices")
    cost = sum((c for (u, v, c) in net.arcs if u in side and v not in side), Fraction(0))
    stated = _one_value(text, "s")
    if not cost == stated == optimum:
        raise CheckError(f"cut cost {cost}, stated {stated}, certified {optimum}")


def check_segment(img, text, optimum):
    """The mask's cost (discarded probabilities plus split-pair penalties)
    must equal the certified minimum cut."""
    tokens = text.split()
    w, h = img.width, img.height
    if tokens[:3] != ["P1", str(w), str(h)] or len(tokens) != 3 + w * h:
        raise CheckError("not a plain bitmap of the image's size")
    bits = tokens[3:]
    if any(b not in ("0", "1") for b in bits):
        raise CheckError("bitmap holds a value other than 0 or 1")
    fg = [b == "1" for b in bits]
    cost = Fraction(0)
    for y in range(h):
        for x in range(w):
            p = y * w + x
            g = Fraction(img.rows[y][x], img.maxval)
            cost += (1 - g) if fg[p] else g
            if x + 1 < w and fg[p] != fg[p + 1]:
                cost += PENALTY
            if y + 1 < h and fg[p] != fg[p + w]:
                cost += PENALTY
    if cost != optimum:
        raise CheckError(f"segmentation cost {cost} differs from the certified {optimum}")


def check_matching(graph, text, exit_code):
    """Exit 0 with a perfect matching, or exit 1 with a left subset S
    whose neighbourhood is smaller than S (Hall's condition fails)."""
    edges = set(graph.edges)
    if exit_code == 0:
        pairs = [(int(a), int(b)) for a, b in _records(text, "match", 3)]
        if len(pairs) != graph.n or len(text.splitlines()) != graph.n:
            raise CheckError(f"expected {graph.n} match lines")
        if {i for i, _ in pairs} != set(range(1, graph.n + 1)) or \
                {j for _, j in pairs} != set(range(1, graph.n + 1)):
            raise CheckError("matching does not cover both sides exactly once")
        if not set(pairs) <= edges:
            raise CheckError("matching uses a pair that is not an edge")
        return
    if exit_code != 1:
        raise CheckError(f"exit code {exit_code}")
    rows = _records(text, "violation")
    if len(rows) != 1 or not rows[0]:
        raise CheckError("expected one non-empty `violation` line")
    subset = {int(v) for v in rows[0]}
    if not subset <= set(range(1, graph.n + 1)):
        raise CheckError("violation names a vertex outside the left side")
    neighbours = {j for (i, j) in edges if i in subset}
    if len(neighbours) >= len(subset):
        raise CheckError(f"|N(S)| = {len(neighbours)} is not below |S| = {len(subset)}")


def check_chains(poset, text, optimum):
    """Each chain climbs bottom to top along covers (hence is maximal in a
    graded poset), no cover is used twice, and there are as many chains as
    the certified maximum flow."""
    covers = set(poset.covers)
    used = set()
    chains = _records(text, "chain")
    for chain in chains:
        if chain[0] != poset.bottom or chain[-1] != poset.top:
            raise CheckError(f"chain {chain} does not run from bottom to top")
        for step in zip(chain, chain[1:]):
            if step not in covers or step in used:
                raise CheckError(f"step {step} is not a cover or is used twice")
            used.add(step)
    stated = _one_value(text, "s")
    if not len(chains) == stated == optimum:
        raise CheckError(f"{len(chains)} chains, stated {stated}, certified {optimum}")


def check_lp_dual(text, optimum):
    primal, dual = _one_value(text, "primal_opt"), _one_value(text, "dual_opt")
    if not primal == dual == optimum:
        raise CheckError(f"primal {primal}, dual {dual}, certified {optimum}")


def boundary(facet):
    """Signed (d-1)-faces of an oriented simplex, keyed by sorted vertices."""
    out = {}
    for i in range(len(facet)):
        face = facet[:i] + facet[i + 1:]
        inversions = sum(1 for a in range(len(face)) for b in range(a + 1, len(face))
                         if face[a] > face[b])
        out[tuple(sorted(face))] = (-1) ** (i + inversions)
    return out


def check_hflow_values(text, optimum):
    """`--algo=all`: the LP and augmentation values agree, and in
    dimension 1 they equal the certified graph maximum flow."""
    values = [_value(fields[0]) for fields in _records(text, "s", 2)]
    if len(values) != 2 or values[0] != values[1]:
        raise CheckError(f"LP and augmentation values differ: {values}")
    if optimum is not None and values[0] != optimum:
        raise CheckError(f"value {values[0]} differs from the certified {optimum}")
    return values[0]


def check_hflow_flow(cx, text, optimum):
    """The flow is a non-negative weighting within capacity whose
    boundary vanishes, and it carries the optimum on the source facet."""
    k = len(cx.facets)
    rows = _records(text, "hf", 3)
    if [int(fields[0]) for fields in rows] != list(range(k)):
        raise CheckError("expected one `hf` line per facet, in order")
    x = [_value(fields[1]) for fields in rows]
    for j in range(k):
        if x[j] < 0 or (j != cx.t_index and x[j] > cx.caps[j]):
            raise CheckError(f"facet {j} carries {x[j]}, outside its capacity")
    total = {}
    for j, facet in enumerate(cx.facets):
        for face, sign in boundary(facet).items():
            total[face] = total.get(face, 0) + sign * x[j]
    if any(total.values()):
        raise CheckError("the flow's boundary does not vanish")
    if not _one_value(text, "s") == x[cx.t_index] == optimum:
        raise CheckError(f"source facet carries {x[cx.t_index]}, expected {optimum}")


def check(op, instance, text, exit_code, optimum):
    """Check one operation's output; ``optimum`` is the certified value
    for the instance (for dimension-2 complexes: the augmentation value
    from the `--algo=all` run, or None when that run is not known)."""
    if op.command != "matching" and exit_code != 0:
        raise CheckError(f"exit code {exit_code}")
    if op.command == "maxflow":
        check_flow(instance, text, optimum)
    elif op.command == "mincut":
        check_mincut(instance, text, optimum)
    elif op.command == "segment":
        check_segment(instance, text, optimum)
    elif op.command == "matching":
        check_matching(instance, text, exit_code)
    elif op.command == "chains":
        check_chains(instance, text, optimum)
    elif op.command == "lp-dual":
        check_lp_dual(text, optimum)
    elif op.command == "hflow" and "--algo=all" in op.flags:
        return check_hflow_values(text, optimum)
    elif op.command == "hflow":
        check_hflow_flow(instance, text, optimum)
    else:
        raise CheckError(f"no check for {op.command} {op.flags}")
    return optimum

