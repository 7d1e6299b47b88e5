"""Closed-form genus bounds, face-size thresholds, and their checkers.

Everything here is exact integer arithmetic.  The two threshold functions
give the smallest face sizes at which a c-connected map with a simple dual
can have a 2-cut (sum of two doubly intersecting faces) or a 1-cut (one
face) in the dual; the checkers decide the corresponding guarantee
hypotheses on concrete maps.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Map
from .dual import doubly_intersecting, dual


def _require_positive_c(c: int) -> None:
    if c < 1:
        raise ValueError(f"connectivity parameter must be >= 1, got {c}")


def min_genus(c: int) -> int:
    """Smallest orientable genus on which a c-connected graph embeds."""
    _require_positive_c(c)
    if c <= 5:
        return 0
    return -((c - 2) * (c - 3) // -12)


def two_cut_size_threshold(c: int) -> int:
    """Minimum of d(f)+d(f') over doubly intersecting face pairs admitting a dual 2-cut."""
    _require_positive_c(c)
    if c <= 2:
        return 7
    if c <= 4:
        return 10
    return 12


def one_cut_size_threshold(c: int) -> int:
    """Minimum single face size admitting a dual 1-cut."""
    _require_positive_c(c)
    table = {1: 6, 2: 9, 3: 9, 4: 10, 5: 10, 6: 12, 7: 14}
    return table.get(c, 15)


def genus_lower_bound(c: int, v_x: int, f_x: int) -> int:
    """Genus forced by vertex excess at least v_x and face excess at least f_x.

    Only meaningful for c >= 6 (the vertex-excess term would turn negative
    below that); smaller c is rejected.
    """
    if c < 6:
        raise ValueError(f"the excess bound needs c >= 6, got {c}")
    if v_x < 0 or f_x < 0:
        raise ValueError("excesses must be non-negative")
    numerator = (c - 2) * (c - 3) + (c - 6) * v_x + 2 * f_x
    return -(numerator // -12)


class ExcessProfile(NamedTuple):
    c: int
    v_plus: int  # vertices beyond the c+1 minimum
    f_plus: int  # walk steps beyond a triangulation, summed over faces


def excess_profile(m: Map, c: int) -> ExcessProfile:
    """Measure both excesses of a map against connectivity parameter c.

    Requires minimum degree >= c.  For simple maps of minimum degree >= 6
    the measured profile feeds genus_lower_bound; multigraphs and tiny
    simple maps can have negative f_plus, where the bound does not apply.
    """
    _require_positive_c(c)
    mindeg = min(len(r) for r in m.rotations)
    if mindeg < c:
        raise ValueError(f"minimum degree {mindeg} below c={c}")
    v_plus = m.vertex_count - (c + 1)
    f_plus = sum(f.size - 3 for f in m.faces)
    return ExcessProfile(c, v_plus, f_plus)


class ThresholdVerdict(NamedTuple):
    """Outcome of a guarantee hypothesis check.

    For the 2-cut checker, violations are (face, face) index pairs of
    doubly intersecting faces whose sizes sum to the threshold or beyond;
    for the 1-cut checker they are single face indices at or beyond it.
    """

    threshold: int
    violations: tuple

    @property
    def guaranteed(self) -> bool:
        return not self.violations


def check_two_cut_guarantee(m: Map, c: int) -> ThresholdVerdict:
    """Do all doubly intersecting face pairs sum below the 2-cut threshold?

    When they do, the dual of a c-connected map with a simple dual is
    guaranteed 3-connected.  The dual simplicity precondition is enforced;
    c-connectivity of m is the caller's responsibility.
    """
    report = dual(m)
    if not report.simple:
        raise ValueError(f"dual is not simple (verdict: {report.verdict})")
    threshold = two_cut_size_threshold(c)
    faces = m.faces
    violations = []
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            if faces[i].size + faces[j].size >= threshold and doubly_intersecting(
                m, faces[i], faces[j]
            ):
                violations.append((i, j))
    return ThresholdVerdict(threshold, tuple(violations))


def check_one_cut_guarantee(m: Map, c: int) -> ThresholdVerdict:
    """Are all faces smaller than the 1-cut threshold?

    When they are, the dual of a c-connected map with a simple dual is
    guaranteed 2-connected.
    """
    report = dual(m)
    if not report.simple:
        raise ValueError(f"dual is not simple (verdict: {report.verdict})")
    threshold = one_cut_size_threshold(c)
    violations = tuple(f.index for f in m.faces if f.size >= threshold)
    return ThresholdVerdict(threshold, violations)


class TableEntry(NamedTuple):
    status: str  # "exact" | "lower" | "upper"
    value: int
    provenance: str


def two_cut_genus_bounds(c: int) -> tuple[TableEntry, ...]:
    """Known genus values for c-connected maps with a simple dual having a 2-cut.

    Exact for every c > 2; nothing is recorded for c in {1, 2}.
    """
    _require_positive_c(c)
    if c <= 2:
        return ()
    return (TableEntry("exact", min_genus(c) + 1, "threshold-argument"),)


def one_cut_genus_bounds(c: int) -> tuple[TableEntry, ...]:
    """Known genus values/bounds for c-connected maps with a simple dual having a 1-cut.

    Exact through c = 9; beyond that a general lower bound, improved by an
    explicit upper bound on the arithmetic family c = 12s+8 with s >= 2.
    """
    _require_positive_c(c)
    if c == 1:
        return (TableEntry("exact", 0, "small-case"),)
    if c <= 3:
        return (TableEntry("exact", 1, "small-case"),)
    if c <= 9:
        return (TableEntry("exact", min_genus(c) + 2, "threshold-argument"),)
    entries = [TableEntry("lower", min_genus(c) + 2, "threshold-argument")]
    if c % 12 == 8 and (c - 8) // 12 >= 2:
        entries.append(TableEntry("upper", min_genus(c) + 3, "explicit-construction"))
    return tuple(entries)
