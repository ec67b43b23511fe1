"""Config-driven u&u: apply persisted per-loop tuning decisions.

:class:`TunedUU` is the :class:`~repro.transforms.heuristic.HeuristicUU`
sibling for the ``tuned`` pipeline configuration: instead of *deriving*
per-loop decisions from the static cost model, it *replays* decisions an
empirical search persisted (see :mod:`repro.tune`).  Each decision names a
loop and the transform to apply:

* ``factor >= 2, unmerge``  — unroll-and-unmerge (``apply_uu``);
* ``factor == 1, unmerge``  — pure unmerging (u&u with u' = 1);
* ``factor >= 2, !unmerge`` — plain unrolling (the loop is claimed so the
  late baseline unroller keeps its hands off, exactly like the paper's
  per-loop ``unroll`` configuration).

Like the heuristic pass, loops are re-found by their (stable) header
object before each application — applying one transform relayouts the
function — and every outcome is recorded as a
:class:`~repro.transforms.heuristic.LoopDecision` so ``repro``'s reporting
and the remark stream render tuned and heuristic runs identically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.cost_model import loop_size
from ..analysis import manager as analyses
from ..analysis.paths import count_paths
from ..ir.function import Function
from ..obs import session as obs
from .heuristic import LoopDecision
from .unroll import can_unroll, unroll_loop
from .uu import apply_uu, uu_applicable


class TunedUU:
    """Whole-function replay of persisted per-loop tuning decisions.

    ``decisions`` is duck-typed over ``loop_id``/``factor``/``unmerge``
    (normally :class:`repro.tune.store.TunedLoopDecision`).  Decisions
    naming loops of other functions are ignored; decisions whose loop no
    longer exists (or fails its legality check) are recorded as skipped,
    never silently dropped.
    """

    name = "tuned-uu"

    def __init__(self, decisions: Sequence,
                 max_instructions: int = 200_000) -> None:
        self.tuned_decisions = list(decisions)
        self.max_instructions = max_instructions
        #: LoopDecision log, same shape as ``HeuristicUU.decisions`` so
        #: cells, caches, and reports treat both providers uniformly.
        self.decisions: List[LoopDecision] = []

    def run(self, func: Function) -> bool:
        loop_info = analyses.loop_info(func)
        by_id = {loop.loop_id: loop for loop in loop_info.loops}
        prefix = f"{func.name}:"
        changed = False
        logged: List[LoopDecision] = []
        for tuned in self.tuned_decisions:
            if not str(tuned.loop_id).startswith(prefix):
                continue
            original = by_id.get(tuned.loop_id)
            if original is None:
                logged.append(LoopDecision(
                    tuned.loop_id, 0, 0, tuned.factor,
                    "tuned", applied=False))
                continue
            paths = count_paths(original, loop_info)
            size = loop_size(original)
            decision = LoopDecision(tuned.loop_id, paths, size,
                                    tuned.factor, "tuned")
            # Re-find the loop by header: earlier applications relayout.
            header = original.header
            target = None
            for loop in analyses.loop_info(func).loops:
                if loop.header is header:
                    target = loop
                    break
            if target is None:
                decision.applied = False
                logged.append(decision)
                continue
            decision.applied = self._apply(func, target, tuned)
            changed |= bool(decision.applied)
            logged.append(decision)
        self.decisions.extend(logged)
        if obs.active() is not None:
            for d, tuned in zip(logged,
                                [t for t in self.tuned_decisions
                                 if str(t.loop_id).startswith(prefix)]):
                what = ("unroll-and-unmerge" if tuned.unmerge and
                        tuned.factor >= 2 else
                        "unmerge" if tuned.unmerge else "unroll")
                if d.applied:
                    obs.remark("applied", self.name, func.name,
                               f"tuned {what} with u={tuned.factor}",
                               loop_id=d.loop_id, u=tuned.factor,
                               unmerge=tuned.unmerge, p=d.paths, s=d.size)
                else:
                    obs.remark("missed", self.name, func.name,
                               f"tuned {what} u={tuned.factor} not applied "
                               "(loop vanished or transform declined)",
                               loop_id=d.loop_id, u=tuned.factor,
                               unmerge=tuned.unmerge)
        return changed

    def _apply(self, func: Function, loop, tuned) -> bool:
        if tuned.unmerge:
            if not uu_applicable(func, loop):
                return False
            return apply_uu(func, loop, max(1, tuned.factor),
                            max_instructions=self.max_instructions)
        if tuned.factor < 2 or not can_unroll(loop):
            return False
        claimed = set(func.attributes.get("uu_claimed_loops", ()))
        claimed.add(loop.loop_id)
        func.attributes["uu_claimed_loops"] = claimed
        unroll_loop(func, loop, tuned.factor)
        return True
