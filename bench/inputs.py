"""Seeded input builders and an independent colouring checker.

Every builder is a pure function of its arguments (the ``rng`` included):
the same seed gives the same files.  The program under test only ever sees
the text written here.  The checker shares no code with ``qcolour``.
"""

from __future__ import annotations

import math
import random
from pathlib import Path


class CheckError(Exception):
    """An output of the program under test is not what the benchmark knows
    it must be."""


def sparse_planted_pm(
    n: int, avg_degree: float, rng: random.Random
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A sparse random graph on ``n`` vertices that has a perfect matching.

    A random pairing of the vertices is planted; every other vertex pair is
    added independently with probability ``(avg_degree - 1) / (n - 1)``,
    skipping geometrically over absent pairs (Batagelj & Brandes, "Efficient
    generation of large random networks", Phys. Rev. E 71, 2005), so the
    cost is O(n + m).  The edge order is shuffled, so seeding a matching
    greedily in edge order does not recover the planted pairing.

    Returns ``(edges, planted)``.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    order = list(range(n))
    rng.shuffle(order)
    planted = [
        (min(order[i], order[i + 1]), max(order[i], order[i + 1]))
        for i in range(0, n, 2)
    ]
    edges = list(planted)
    seen = set(planted)
    p = (avg_degree - 1) / (n - 1)
    if not 0 <= p < 1:
        raise ValueError(f"average degree {avg_degree} does not fit {n} vertices")
    if p > 0:
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n and (w, v) not in seen:
                seen.add((w, v))
                edges.append((w, v))
    rng.shuffle(edges)
    return edges, planted


def fig5_template() -> tuple[int, list[tuple[int, int]], list[tuple[int, int]], list[int], int]:
    """The checked-in 58/37 instance as plain data:
    ``(n, edges, matching pairs, certificate colours, palette size)``."""
    # Imported here: the package is found through the path ``run.load_qcolour`` sets.
    from qcolour.instances import fig5_lower_bound

    inst = fig5_lower_bound()
    g, cert = inst.graph, inst.certified_colouring
    pairs = [g.edges[eid] for eid in sorted(inst.matching.edges.members)]
    return g.n, list(g.edges), pairs, list(cert.colour), cert.num_colours


def fig5_copies(template, k: int, rng: random.Random):
    """``k`` disjoint copies of the fig5 instance under one random vertex
    relabelling and edge order.  Copy ``i`` keeps its own palette (colours
    shifted by ``i`` palettes), so the result is again a valid colouring.

    Returns ``(n, edges, matching, colours)`` with ``colours[i]`` the colour
    of ``edges[i]``.
    """
    n0, edges0, pairs0, colours0, palette = template
    n = n0 * k
    label = list(range(n))
    rng.shuffle(label)
    coloured = [
        (label[u + n0 * i], label[v + n0 * i], c + palette * i)
        for i in range(k)
        for (u, v), c in zip(edges0, colours0)
    ]
    matching = [(label[u + n0 * i], label[v + n0 * i]) for i in range(k) for u, v in pairs0]
    rng.shuffle(coloured)
    rng.shuffle(matching)
    return n, [(u, v) for u, v, _ in coloured], matching, [c for _, _, c in coloured]


def deep_path(depth: int, rng: random.Random):
    """One long path in a single matching colour, running between two
    non-matching classes.

    Path vertices ``p_0 .. p_depth`` each carry a pendant matching edge;
    the path edges and those pendant edges all wear colour A.  ``p_0`` and
    ``p_depth`` each end one single-edge non-matching class, whose other end
    is matched by an edge of its own colour.  The analysis grows one tree of
    depth ``depth`` from ``p_0``.  There are ``2 * depth + 6`` vertices and
    the instance has 5 colours, ``|M| = depth + 3`` and ``h = 1``.

    Returns ``(n, edges, matching, colours)`` like :func:`fig5_copies`.
    """
    n = 2 * depth + 6
    label = list(range(n))
    rng.shuffle(label)
    path = label[: depth + 1]
    pendant = label[depth + 1 : 2 * depth + 2]
    b1, b1_mate, b2, b2_mate = label[2 * depth + 2 :]
    a, x, y, c1, c2 = range(5)
    coloured = [(path[i], path[i + 1], a) for i in range(depth)]
    coloured += [(p, q, a) for p, q in zip(path, pendant)]
    coloured += [(path[0], b1, x), (path[-1], b2, y), (b1, b1_mate, c1), (b2, b2_mate, c2)]
    matching = list(zip(path, pendant)) + [(b1, b1_mate), (b2, b2_mate)]
    rng.shuffle(coloured)
    rng.shuffle(matching)
    return n, [(u, v) for u, v, _ in coloured], matching, [c for _, _, c in coloured]


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def write_analyze_inputs(stem: Path, n: int, edges, matching, colours) -> tuple[str, str, str]:
    """Write the graph, matching and colouring files ``analyze`` reads."""
    files = (stem.with_suffix(".graph"), stem.with_suffix(".matching"), stem.with_suffix(".colouring"))
    files[0].write_text(graph_text(n, edges), encoding="utf-8")
    files[1].write_text("".join(f"{u} {v}\n" for u, v in matching), encoding="utf-8")
    files[2].write_text(
        "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, colours)), encoding="utf-8"
    )
    return tuple(str(f) for f in files)


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    return n, [(int(a), int(b)) for a, b in (ln.split() for ln in lines[1:] if ln)]


def count_colours(n: int, edges, colouring_text: str, q: int = 2) -> int:
    """Check a ``u v colour`` document against ``edges`` and budget ``q``.

    Line i must name edge i, and no vertex may see more than ``q`` distinct
    colours.  Returns the number of distinct colours; raises
    :class:`CheckError` otherwise.
    """
    lines = colouring_text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(edges):
        raise CheckError(f"colouring has {len(lines)} lines for {len(edges)} edges")
    seen: list[set[int]] = [set() for _ in range(n)]
    palette = set()
    for i, (line, (u, v)) in enumerate(zip(lines, edges)):
        fields = line.split()
        if len(fields) != 3 or {int(fields[0]), int(fields[1])} != {u, v}:
            raise CheckError(f"colouring line {i + 1} does not name edge ({u}, {v})")
        c = int(fields[2])
        palette.add(c)
        seen[u].add(c)
        seen[v].add(c)
        if len(seen[u]) > q or len(seen[v]) > q:
            raise CheckError(f"edge ({u}, {v}) gives a vertex more than {q} colours")
    return len(palette)


def is_perfect_matching(n: int, edges, pairs) -> bool:
    """True when ``pairs`` are edges of the graph covering every vertex once."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    covered = [v for pair in pairs for v in pair]
    return (
        len(covered) == n
        and len(set(covered)) == n
        and all((min(u, v), max(u, v)) in present for u, v in pairs)
    )
