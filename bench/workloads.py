"""The four workloads: set-up, seeded inputs, the timed op and its check.

Every workload runs on the spaces s = 3, s = 7/2 and Q = 13/10.  Inputs
come in units that hold the same mix on every space, and a pass is a fixed
number of units, so every pass has the same make-up.  Ops reach the library
through module attributes (``geodesic.distance``, ``oracle.point_at``) so
that the tracer's wrappers see every call.

Importing this module imports the core of ``laakso`` (not ``oracle`` or
``cli``); each workload's ``setup`` imports what else it needs, because the
benchmark times set-up from before the first import.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction

import checks
from laakso import fractal, geodesic
from laakso.space import Space

#: CLI options of the three spaces, in the order of ``Workload.spaces``.
SPACE_OPTIONS = (("-s", "3"), ("-s", "7/2"), ("-q", "13/10"))

#: Depth of the paths and of the CLI's geodesic and path commands.
PATH_DEPTH = 32


def build_spaces() -> list:
    return [Space.from_ratio(3), Space.from_ratio(Fraction(7, 2)),
            Space.from_dimension(Fraction(13, 10))]


def _digits(rng: random.Random, low: int, high: int) -> str:
    return "".join("01"[rng.getrandbits(1)] for _ in range(rng.randint(low, high)))


def _address(rng: random.Random, max_prefix: int, max_cycle: int) -> tuple[str, str]:
    return _digits(rng, 0, max_prefix), _digits(rng, 1, max_cycle)


def _shallow_height(rng: random.Random, ms, max_order: int = 6) -> str:
    """A grid height of order <= max_order, or one that is no level (j/97)."""
    if rng.getrandbits(1):
        den = ms.D(rng.randint(1, max_order))
        return f"{rng.randint(0, den)}/{den}"
    return f"{rng.randint(0, 97)}/97"


def _deep_height(rng: random.Random, ms) -> str:
    """A level of order 40 to 100."""
    k = rng.randint(40, 100)
    den, m_k = ms.D(k), ms.entry(k)
    while True:
        numerator = rng.randint(1, den - 1)
        if numerator % m_k:
            return f"{numerator}/{den}"


def invoke_cli(runner, command, args):
    """One in-process CLI invocation (the tracer's ``cli.command`` span)."""
    return runner.invoke(command, args)


def forget_runner_streams():
    """Empty click's caches of wrapped standard streams.

    click 8.4 caches the text wrapper of each ``sys.stdout`` it has seen in a
    WeakKeyDictionary whose value is the stream itself, so every stream
    ``CliRunner`` swaps in stays alive: about 14 kB per invocation.  A real
    invocation runs once per process and never sees this.
    """
    from click import _compat

    for name in ("_default_text_stdin", "_default_text_stdout", "_default_text_stderr"):
        for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
            if isinstance(cell.cell_contents, weakref.WeakKeyDictionary):
                cell.cell_contents.clear()


class Workload:
    name = ""
    units_per_pass = 1
    #: Sequence depth extended during set-up; 0 leaves the spaces alone.
    setup_depth = 0

    def setup(self) -> None:
        """Everything before the first op is ready; timed as ``setup_s``."""
        self.spaces = build_spaces()
        for space in self.spaces:
            space.mseq.D(self.setup_depth)

    def prepare(self, seed: int) -> None:
        """Untimed preparation of inputs and checks."""

    def inputs(self, rng: random.Random, units: int):
        """The items of ``units`` units, or None when the inputs run out."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        raise NotImplementedError


class DistancePairs(Workload):
    """``laakso distance`` without click: parse two literals, one distance."""

    name = "distance-pairs"
    units_per_pass = 16
    setup_depth = 128
    #: Per space and unit: six shallow pairs (one of them near) and two deep.
    KINDS = ("shallow",) * 5 + ("near", "deep", "deep")
    #: Depth of the oracle graph for near pairs; depth 4 at Q = 13/10 has
    #: about 160 000 vertices, too many to build per pair.
    CHECK_DEPTH = (4, 4, 2)
    #: Near pairs per space and pass that the oracle checks.
    ORACLE_CHECKS = 1

    def prepare(self, seed):
        from laakso import oracle

        self.oracle = oracle

    def _pair(self, rng, si, kind):
        ms = self.spaces[si].mseq
        if kind == "near":
            prefix, cycle = _address(rng, 8, 12)
            depth = self.CHECK_DEPTH[si]
            while len(prefix) < depth:
                prefix += cycle
            flips = rng.sample(range(depth), rng.randint(1, depth))
            other = "".join(str(1 - int(d)) if i in flips else d for i, d in enumerate(prefix))
            hx = _shallow_height(rng, ms, depth)
            hy = _shallow_height(rng, ms, depth)
            return f"{prefix}({cycle})@{hx}", f"{other}({cycle})@{hy}"
        height = _deep_height if kind == "deep" else _shallow_height
        (px, cx), (py, cy) = _address(rng, 8, 12), _address(rng, 8, 12)
        return f"{px}({cx})@{height(rng, ms)}", f"{py}({cy})@{height(rng, ms)}"

    def inputs(self, rng, units):
        items, seen = [], set()
        verified = [0] * len(self.spaces)
        for _ in range(units):
            for si in range(len(self.spaces)):
                for kind in self.KINDS:
                    pair = self._pair(rng, si, kind)
                    while (si, pair) in seen:
                        pair = self._pair(rng, si, kind)
                    seen.add((si, pair))
                    verify = kind == "near" and verified[si] < self.ORACLE_CHECKS
                    verified[si] += verify
                    items.append((si, kind, *pair, verify))
        return items

    def op(self, item):
        space = self.spaces[item[0]]
        x, y = space.parse_point(item[2]), space.parse_point(item[3])
        return x, y, geodesic.distance(space, x, y)

    def check(self, item, out):
        si, _, _, _, verify = item
        space = self.spaces[si]
        x, y, d = out
        graph_d = None
        diffs = fractal.difference_orders(x.address, y.address)
        if verify and diffs.is_finite and all(o <= self.CHECK_DEPTH[si] for o in diffs.head):
            graph = self.oracle.build(space, self.CHECK_DEPTH[si], [x.height, y.height])
            graph_d = self.oracle.graph_distance(graph, x, y)
        return checks.check_distance_pair(x, y, d, geodesic.distance(space, y, x), graph_d)


def _path_pair(rng, space, kind, seen):
    """Two distinct points with shallow heights; cycles of up to 4 digits.

    ``infinite`` pairs differ at infinitely many orders (their tails
    differ), ``finite`` pairs share the cycle and differ only in prefix.
    A pair whose literals are in ``seen`` is drawn again; the new one is
    added to it.
    """
    while True:
        (px, cx), (py, cy) = _address(rng, 8, 4), _address(rng, 8, 4)
        if kind == "finite":
            cy = cx
        lx = f"{px}({cx})@{_shallow_height(rng, space.mseq)}"
        ly = f"{py}({cy})@{_shallow_height(rng, space.mseq)}"
        if (space, lx, ly) in seen:
            continue
        x, y = space.parse_point(lx), space.parse_point(ly)
        infinite = not fractal.difference_orders(x.address, y.address).is_finite
        if x != y and infinite == (kind == "infinite"):
            seen.add((space, lx, ly))
            return lx, ly, x, y


class Paths(Workload):
    """Geodesic, its length and class, and both ``connect`` strategies."""

    name = "paths"
    units_per_pass = 4
    #: Cycles of up to 4 digits repeat with period at most 12, so 32 jumps
    #: reach order at most 8 + 1 + 32 * 12 = 393.
    setup_depth = 400
    KINDS = ("infinite", "infinite", "infinite", "finite")

    def inputs(self, rng, units):
        items, seen = [], set()
        for _ in range(units):
            for si, space in enumerate(self.spaces):
                for kind in self.KINDS:
                    _, _, x, y = _path_pair(rng, space, kind, seen)
                    items.append((si, x, y))
        return items

    def op(self, item):
        si, x, y = item
        space = self.spaces[si]
        path = geodesic.geodesic_path(space, x, y, PATH_DEPTH)
        length = geodesic.path_length(path)
        geodesic.classify(path)  # timed, not checked: see checks.check_paths
        connected = []
        for strategy in ("nearest", "increasing"):
            other = geodesic.connect(space, x, y, strategy, PATH_DEPTH)
            connected.append((other, geodesic.path_length(other)))
        return path, length, connected

    def check(self, item, out):
        si, x, y = item
        space = self.spaces[si]
        return checks.check_paths(space, geodesic.distance(space, x, y), *out)


class OracleVerify(Workload):
    """One full single-source Dijkstra, compared with the closed form."""

    name = "oracle-verify"
    units_per_pass = 4
    TARGETS = 5

    def setup(self):
        from laakso import oracle

        self.oracle = oracle
        self.spaces = build_spaces()
        s3, s72, q13 = self.spaces
        self.graphs = [
            oracle.build(s3, 4, [Fraction(1, 5), Fraction(1, 10)]),
            oracle.build(s72, 4),
            # the 100 midpoints of the order-2 grid double its 101 rows, so
            # that a 30-second run keeps finding unused sources at up to twice
            # the speed given in README.md
            oracle.build(q13, 2, [Fraction(2 * j + 1, 200) for j in range(100)]),
        ]

    def prepare(self, seed):
        # every vertex is a source at most once per run
        self.sources = [
            random.Random(f"{self.name}/{seed}/sources/{si}").sample(range(g.vertex_count), g.vertex_count)
            for si, g in enumerate(self.graphs)
        ]
        self.cursor = 0

    @staticmethod
    def _vertex(graph, index):
        """(column, height index) of a vertex numbered column-major."""
        rows = len(graph.heights)
        return index // rows, index % rows

    def inputs(self, rng, units):
        if self.cursor + units > min(len(s) for s in self.sources):
            return None
        items = []
        for u in range(self.cursor, self.cursor + units):
            for si, graph in enumerate(self.graphs):
                source = self._vertex(graph, self.sources[si][u])
                targets = [self._vertex(graph, rng.randrange(graph.vertex_count))
                           for _ in range(self.TARGETS)]
                items.append((si, source, targets))
        self.cursor += units
        return items

    def op(self, item):
        si, source, targets = item
        oracle, graph, space = self.oracle, self.graphs[si], self.spaces[si]
        x = oracle.point_at(graph, *source)
        dist = oracle.shortest_paths(graph, oracle._vertex(graph, x))
        pairs = []
        for target in targets:
            y = oracle.point_at(graph, *target)
            pairs.append((dist[oracle._vertex(graph, y)], geodesic.distance(space, x, y)))
        return pairs

    def check(self, item, out):
        return checks.check_oracle(out)


class Cli(Workload):
    """In-process ``laakso distance``, ``geodesic`` and ``path`` invocations."""

    name = "cli"
    units_per_pass = 8
    COMMANDS = ("distance", "geodesic", "path")

    def setup(self):
        from click.testing import CliRunner

        from laakso import cli

        self.main = cli.main
        self.runner = CliRunner()

    def prepare(self, seed):
        self.spaces = build_spaces()  # reference distances for the checks

    def inputs(self, rng, units):
        items, seen = [], set()
        for u in range(units):
            for si, space in enumerate(self.spaces):
                for c, command in enumerate(self.COMMANDS):
                    # one pair in four differs at finitely many orders
                    kind = "finite" if (u * len(self.COMMANDS) + c) % 4 == 0 else "infinite"
                    lx, ly, x, y = _path_pair(rng, space, kind, seen)
                    args = [*SPACE_OPTIONS[si], command, lx, ly]
                    if command != "distance":
                        args += ["--depth", str(PATH_DEPTH)]
                    items.append((si, command, args, x, y))
        return items

    def op(self, item):
        result = invoke_cli(self.runner, self.main, item[2])
        return result.exit_code, result.stdout

    def check(self, item, out):
        forget_runner_streams()
        si, command, _, x, y = item
        return checks.check_cli(command, *out, geodesic.distance(self.spaces[si], x, y))


WORKLOADS = {w.name: w for w in (DistancePairs, Paths, OracleVerify, Cli)}
