"""The Pareto archive and its hypervolume, in minimization space.

:class:`ParetoArchive` keeps the mutually non-dominated objective vectors
offered to it, and :func:`hypervolume` measures a point set in one dimension
sweep, resumable from a :class:`HypervolumeSweep`. The archive owns one such
state: :func:`~cfgtune.tuner.tune` passes it to each generation's
:func:`hypervolume`, and its staircases then answer the archive's rejection
test. :mod:`cfgtune.tuner` imports these names, and ``tune`` calls
``hypervolume`` and ``update_archive`` through that module's names. Apart
from the search they also keep the largest module's compile smaller: a stage
without a bytecode cache compiles every module, and the largest compile sets
its peak memory (README, "Start-up").
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import NamedTuple

from .space import Configuration


class ObjectiveVector(NamedTuple):
    """One point in minimization space; effectiveness enters negated."""

    size_mb: float
    gflops: float
    neg_effectiveness: float

    @property
    def effectiveness(self) -> float:
        return -self.neg_effectiveness


class Individual(NamedTuple):
    config: Configuration
    objectives: ObjectiveVector


def dominates(u: ObjectiveVector, v: ObjectiveVector) -> bool:
    """u is at least as good everywhere and strictly better somewhere."""
    return (
        u[0] <= v[0]
        and u[1] <= v[1]
        and u[2] <= v[2]
        and (u[0] < v[0] or u[1] < v[1] or u[2] < v[2])
    )


_z = operator.itemgetter(2)
_member_z = operator.attrgetter("objectives.neg_effectiveness")


class ParetoArchive:
    """Mutually non-dominated entries that carry ``objectives`` (individuals,
    or the population members of :func:`~cfgtune.tuner.tune`), one per
    objective vector, in ascending ``neg_effectiveness`` (z), ties in order of
    admission.

    A candidate is rejected iff some member is <= it in every objective, an
    equal vector included (first insert wins). An admitted candidate evicts
    every member it is <= in every objective, none equal to it and so each
    dominated; each lies at or after the candidate's z position. The vector
    set, and the entry kept for each vector, do not depend on how the
    rejection test is made, and the final vector set not on insertion order.

    ``sweep`` is the state to pass as ``hypervolume(archive.objective_vectors(),
    reference, archive.sweep)``, as :func:`~cfgtune.tuner.tune` does each
    generation. Its staircases make the rejection test for the members it
    held without a scan (Kung, Luccio & Preparata 1975): one bisect finds the last swept
    point with z <= the candidate's, and one the candidate's size in the
    staircase after that point, whose entry just left of it has the least
    GFLOPs among the swept points no larger in size and z. Only the members
    admitted since are scanned. This is exact: a point left off a staircase
    is weakly dominated by one on it, and a member evicted since the sweep is
    dominated by a present one. A sweep that did not hold every member, in
    the archive's order, is not used (as when the reference box clips a
    member, which the box of :func:`~cfgtune.tuner.tune` never does): every
    member is scanned.
    """

    def __init__(self):
        self._members: list[Individual] = []
        self.sweep = HypervolumeSweep()
        # The sweep as last taken up: its points (to see a new call), the
        # points and staircases the rejection test bisects, and the vectors
        # of the members they do not hold.
        self._synced, self._points, self._stairs, self._unswept = None, [], [], []

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def objective_vectors(self) -> list[ObjectiveVector]:
        return [m.objectives for m in self._members]

    def _sync(self) -> None:
        sweep = self.sweep
        self._synced, vectors = sweep.points, self.objective_vectors()
        if sweep.points == vectors:
            self._points, self._stairs, self._unswept = sweep.points, sweep.stairs, []
        else:
            self._points, self._stairs, self._unswept = [], [], vectors

    def insert(self, candidate: Individual) -> bool:
        """Returns True iff the candidate was admitted."""
        objectives = candidate.objectives
        c0, c1, c2 = objectives
        if self.sweep.points is not self._synced:
            self._sync()
        swept = bisect.bisect_right(self._points, c2, key=_z)
        if swept:
            xs, ys, _ = self._stairs[swept - 1]
            right = bisect.bisect_right(xs, c0)
            if right and ys[right - 1] <= c1:
                return False
        for m0, m1, m2 in self._unswept:
            if m0 <= c0 and m1 <= c1 and m2 <= c2:
                return False
        members = self._members
        start = bisect.bisect_left(members, c2, key=_member_z)
        # From start on every member's z is >= c2.
        kept = [m for m in members[start:] for m0, m1, _ in (m.objectives,) if not (c0 <= m0 and c1 <= m1)]
        if len(kept) < len(members) - start:
            members[start:] = kept
            self._unswept = [v for v in self._unswept if not (c0 <= v[0] and c1 <= v[1] and c2 <= v[2])]
        bisect.insort_right(members, candidate, start, key=_member_z)
        self._unswept.append(objectives)
        return True


def update_archive(archive: ParetoArchive, candidates) -> ParetoArchive:
    """Inserts the candidates in order; returns the archive."""
    for candidate in candidates:
        archive.insert(candidate)
    return archive


class HypervolumeSweep:
    """What :func:`hypervolume` carries over from its last call: the reference,
    the clipped, z-sorted points and, for each of them, the staircase after it
    stored with its area as ``(xs, ys, area)`` (lists replaced when they
    change, never edited, so they are shared), and the term the point's level
    boundary added (0.0 if none). A :class:`ParetoArchive` owns one and
    answers its rejection test from the staircases."""

    def __init__(self, reference=None):
        self.reference, self.points, self.stairs, self.terms = reference, [], [], []


def _staircase_area(xs: list[float], ys: list[float], rx: float, ry: float) -> float:
    area = 0.0
    for x0, x1, y0 in zip(xs, xs[1:] + [rx], ys):
        area += (x1 - x0) * (ry - y0)
    return area


def hypervolume(
    points: list[ObjectiveVector], reference: tuple[float, float, float], sweep: HypervolumeSweep | None = None
) -> float:
    """Volume dominated by the point set within the reference box
    (3 objectives, minimization); points outside the box count for nothing.
    :func:`~cfgtune.tuner.reference_point` gives the box
    :func:`~cfgtune.tuner.tune` records against.

    A dimension sweep: points inside the box are inserted in ascending third
    coordinate into one 2-d staircase (x strictly ascending, y strictly
    descending); when a level is complete, the staircase area times the gap
    to the next level (or the reference) is added. From no state that is
    O(n log n) for the sort plus O(n) per point, so O(n^2) in all, and the
    value equals the per-level definition (the staircase rebuilt at every
    level, the same left-to-right sums) exactly.

    Given the ``sweep`` state of its last call (as the archive of
    :func:`~cfgtune.tuner.tune` keeps one), a call sweeps only the points
    whose staircase differs from the last call's.
    While the staircase equals the last call's after the same previous point,
    the longest run of following points that are the same objects in the same
    order is carried: staircases with their areas, and terms, copied as
    slices, and the terms added left to right as a sweep adds them. Any other
    point is swept as from no state, and carrying starts again where the
    staircase after it equals the last call's after the same object. A call
    costs O(n) list work in C plus O(n) Python steps per swept point;
    :func:`~cfgtune.tuner.tune` at 64 MB, pop 100 x 200 sweeps 7% of its
    records' points, with or without the budget, and passes them in the
    archive's ascending z, which the sort finds already in order.
    A call without a state sweeps into a fresh one and drops it. The value is
    bit for bit a sweep's from no state: staircases equal by ``==`` have equal
    areas, as a -0.0 for a 0.0 only flips the sign of a zero factor, and a
    zero product adds nothing to an area that starts at +0.0. Points are
    matched by identity, which tells -0.0 from 0.0, so they must be
    immutable; the state holds them, so no id among them is reused. A
    reference that differs in any bit starts over.

    A point that completes no level adds a 0.0 term, and no factor needs a
    clamp at zero: x strictly ascends along the staircase, z through the list,
    and every clipped point has x <= rx, y <= ry and z <= rz. ``max(0.0, v)``
    could only turn a -0.0 (``rx - x`` with signed zeros) into +0.0, and
    either zero added to an area or volume that starts at +0.0 gives the same
    float.
    """
    rx, ry, rz = reference
    clipped = sorted([p for p in points if p[0] <= rx and p[1] <= ry and p[2] <= rz], key=_z)
    last = HypervolumeSweep() if sweep is None else sweep
    if repr(last.reference) != repr((rx, ry, rz)):
        last.__init__((rx, ry, rz))
    old, position = last.points, dict(zip(map(id, last.points), itertools.count()))
    stairs, terms = [], []
    xs, ys, area, volume = [], [], 0.0, 0.0
    # Synced: clipped[i - 1] is old[j - 1] (or i == j == 0) and the
    # staircase equals the last call's after it.
    synced, i, j, n = True, 0, 0, len(clipped)
    while i < n:
        same = list(map(operator.is_, clipped[i:], old[j:])) if synced else []
        m = same.index(False) if False in same else len(same)
        if m:  # carry the run; the point after it is not old[j + m], so it is swept
            stairs += last.stairs[j:j + m]
            terms += last.terms[j:j + m]
            volume = functools.reduce(operator.add, last.terms[j:j + m], volume)
            xs, ys, area = stairs[-1]
            i, synced = i + m, False
            continue
        x, y, z = point = clipped[i]
        term = 0.0
        if i and z != clipped[i - 1][2]:  # the level below is complete
            term = area * (z - clipped[i - 1][2])
            volume += term
        right = bisect.bisect_right(xs, x)
        # Skip a point weakly dominated by the staircase; the member with the
        # largest x' <= x has the smallest y' among those.
        if not (right and ys[right - 1] <= y):
            left = bisect.bisect_left(xs, x)
            end = left
            while end < len(ys) and ys[end] >= y:
                end += 1
            xs, ys = xs[:left] + [x] + xs[end:], ys[:left] + [y] + ys[end:]
            area = _staircase_area(xs, ys, rx, ry)
        stairs.append((xs, ys, area))
        terms.append(term)
        j = position.get(id(point), -1) + 1
        synced = j > 0 and last.stairs[j - 1] == stairs[-1]
        i += 1
    if clipped:
        volume += area * (rz - clipped[-1][2])
    last.points, last.stairs, last.terms = clipped, stairs, terms
    return volume
