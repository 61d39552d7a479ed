"""Line-oriented text format for property and graph files.

A property file starts with a header, either ``multicolor r=<int>`` or
``directed palette=<full|compl|orien|undir|tourn>``, followed by one block per
forbidden graph.  A block is ``graph n=<int>`` plus n-1 lines giving the rows
of the upper triangle as space-separated entries: integers ``1..r`` for
multicolor, or the symbols ``o - > <`` for digraphs (no arc, both arcs, arc
from the lower-numbered vertex, arc toward it).  Blank lines separate blocks
and ``#`` starts a comment.

A graph file uses the same header plus exactly one block.

Blocks are written and read a row at a time.  A row is read through a table
of the tokens already read under the header.  A row holding a new token is
read token by token, which accepts spellings such as ``01`` and names the
first bad token and its line, and its tokens join the table.
"""

from __future__ import annotations

from .errors import PropertyFormatError
from .graphs import (
    DIR_CODE_OF,
    DIR_SYMBOL,
    ColoredGraph,
    DiGraph,
    PropertyFamily,
    palette,
)


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(lineno, line):
    parts = line.split()
    if len(parts) == 2 and parts[0] == "multicolor" and parts[1].startswith("r="):
        try:
            r = int(parts[1][2:])
        except ValueError:
            raise PropertyFormatError(f"bad color count {parts[1][2:]!r}", lineno) from None
        if r < 2:
            raise PropertyFormatError("need r >= 2", lineno)
        return ("multicolor", r)
    if len(parts) == 2 and parts[0] == "directed" and parts[1].startswith("palette="):
        kind = parts[1][len("palette="):]
        try:
            return ("directed", palette(kind))
        except ValueError:
            raise PropertyFormatError(f"unknown palette {kind!r}", lineno) from None
    raise PropertyFormatError(
        "expected header 'multicolor r=<int>' or 'directed palette=<kind>'", lineno
    )


def _parse_blocks(lines, header):
    kind, arity = header
    state_of = {}  # each token read so far under this header, with its state
    graphs = []
    it = iter(lines)
    pending = next(it, None)
    while pending is not None:
        lineno, line = pending
        parts = line.split()
        if len(parts) != 2 or parts[0] != "graph" or not parts[1].startswith("n="):
            raise PropertyFormatError("expected 'graph n=<int>'", lineno)
        try:
            n = int(parts[1][2:])
        except ValueError:
            raise PropertyFormatError(f"bad vertex count {parts[1][2:]!r}", lineno) from None
        if n < 1:
            raise PropertyFormatError("graphs need at least one vertex", lineno)

        colors = []
        for i in range(n - 1):
            row = next(it, None)
            if row is None:
                raise PropertyFormatError(f"graph block ended early, expected row {i}", lineno)
            row_lineno, row_line = row
            entries = row_line.split()
            if len(entries) != n - 1 - i:
                raise PropertyFormatError(
                    f"row {i} has {len(entries)} entries, expected {n - 1 - i}", row_lineno
                )
            states = list(map(state_of.get, entries))
            if None in states:
                states = [_parse_entry(token, kind, arity, row_lineno) for token in entries]
                state_of.update(zip(entries, states))
            colors.extend(states)
        if kind == "multicolor":
            graphs.append(ColoredGraph(n, arity, tuple(colors)))
        else:
            graphs.append(DiGraph(n, tuple(colors)))
        pending = next(it, None)
    return graphs


def _parse_entry(token, kind, arity, lineno):
    if kind == "multicolor":
        try:
            c = int(token)
        except ValueError:
            raise PropertyFormatError(f"bad color {token!r}", lineno) from None
        if not 1 <= c <= arity:
            raise PropertyFormatError(f"color out of range: {c} not in 1..{arity}", lineno)
        return c
    code = DIR_CODE_OF.get(token)
    if code is None:
        raise PropertyFormatError(f"bad pair symbol {token!r}, expected one of o - > <", lineno)
    if code not in arity.codes:
        raise PropertyFormatError(
            f"palette violation: {token!r} not allowed under {arity.kind}", lineno
        )
    return code


def parse_property(text: str) -> PropertyFamily:
    """Parse a property file into a validated family."""
    lines = list(_significant_lines(text))
    if not lines:
        raise PropertyFormatError("empty property file")
    header = _parse_header(*lines[0])
    graphs = _parse_blocks(lines[1:], header)
    if not graphs:
        raise PropertyFormatError("property file declares no forbidden graphs")
    if header[0] == "multicolor":
        return PropertyFamily.multicolor(header[1], graphs)
    return PropertyFamily.directed(header[1], graphs)


def parse_graph(text: str):
    """Parse a graph file (same format, exactly one block)."""
    lines = list(_significant_lines(text))
    if not lines:
        raise PropertyFormatError("empty graph file")
    header = _parse_header(*lines[0])
    graphs = _parse_blocks(lines[1:], header)
    if len(graphs) != 1:
        raise PropertyFormatError(f"graph file must hold exactly one graph, found {len(graphs)}")
    return graphs[0]


def format_graph_block(graph) -> str:
    n, colors = graph.n, graph.colors
    spell = str if isinstance(graph, ColoredGraph) else DIR_SYMBOL.__getitem__
    lines = [f"graph n={n}"]
    start = 0
    for i in range(n - 1):
        end = start + n - 1 - i
        lines.append(" ".join(map(spell, colors[start:end])))
        start = end
    return "\n".join(lines)


def format_header(family_or_graph, pal=None) -> str:
    if isinstance(family_or_graph, PropertyFamily):
        if family_or_graph.is_directed:
            return f"directed palette={family_or_graph.palette.kind}"
        return f"multicolor r={family_or_graph.r}"
    if isinstance(family_or_graph, ColoredGraph):
        return f"multicolor r={family_or_graph.r}"
    if pal is None:
        raise ValueError("digraph header needs a palette")
    if isinstance(pal, str):
        pal = palette(pal)
    return f"directed palette={pal.kind}"


def format_property(family: PropertyFamily) -> str:
    blocks = [format_header(family)]
    blocks.extend(format_graph_block(h) for h in family.forbidden)
    return "\n\n".join(blocks) + "\n"


def format_graph(graph, pal=None) -> str:
    return format_header(graph, pal) + "\n\n" + format_graph_block(graph) + "\n"
