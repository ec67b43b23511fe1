"""Redundant load elimination with a restrict-based alias model.

The paper's rainflow analysis (Section V) shows u&u eliminating loads: once
paths are unmerged, the compiler knows ``x[i+1]`` loaded this iteration is
``x[i]`` of the next, and that ``y[j]`` equals the value just stored.  This
pass implements exactly that, with deliberately *path-local* availability:

* load availability flows only through **single-predecessor** edges —
  a merge block starts with nothing available (the information loss the
  paper attributes to control-flow merges);
* stores forward their value to subsequent loads of the same address and
  invalidate potentially-aliasing addresses;
* alias decisions use base-object reasoning: distinct ``__restrict__``
  arguments (``Function.attributes["restrict_args"]``), distinct globals
  and distinct allocas never alias;
* convergent operations (barriers) invalidate everything.

Because GVN runs first and deduplicates GEPs, identical addresses are
identical ``Value`` objects, so availability keys on value identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis import manager as analyses
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (AllocaInst, CallInst, GEPInst, Instruction,
                               LoadInst, StoreInst)
from ..ir.values import Argument, GlobalVariable, Value


def base_object(ptr: Value) -> Value:
    """Walk GEP chains back to the underlying base pointer."""
    seen = 0
    while isinstance(ptr, GEPInst):
        ptr = ptr.pointer
        seen += 1
        if seen > 64:  # Defensive bound; chains are short.
            break
    return ptr


def may_alias(a: Value, b: Value, restrict_args: Set[str]) -> bool:
    """Conservative may-alias query on two pointer values."""
    if a is b:
        return True
    base_a, base_b = base_object(a), base_object(b)
    if base_a is base_b:
        return True  # Same base, unknown offsets.
    kinds = (base_a, base_b)
    # Distinct identified objects never alias each other.
    identified = sum(isinstance(x, (GlobalVariable, AllocaInst)) for x in kinds)
    if identified == 2:
        return False
    if isinstance(base_a, AllocaInst) or isinstance(base_b, AllocaInst):
        # A local allocation never aliases an argument or global.
        return False
    if isinstance(base_a, Argument) and isinstance(base_b, Argument):
        if base_a.name in restrict_args and base_b.name in restrict_args:
            return False
        return True
    if isinstance(base_a, Argument) and isinstance(base_b, GlobalVariable):
        return base_a.name not in restrict_args
    if isinstance(base_b, Argument) and isinstance(base_a, GlobalVariable):
        return base_b.name not in restrict_args
    return True


class LoadElimination:
    """Forward-substitutes redundant loads along unmerged paths."""

    name = "load-elim"

    def run(self, func: Function) -> bool:
        restrict_args: Set[str] = set(func.attributes.get("restrict_args", ()))
        changed = False
        preds = analyses.preds(func)
        rpo = analyses.rpo(func)
        rpo_pos = {id(b): i for i, b in enumerate(rpo)}
        avail_out: Dict[int, Dict[int, Tuple[Value, Value]]] = {}

        for block in rpo:
            block_preds = preds[block]
            if len(block_preds) == 1 and \
                    rpo_pos.get(id(block_preds[0]), 1 << 30) < rpo_pos[id(block)]:
                # Forward single-predecessor edge: inherit availability.
                avail = dict(avail_out.get(id(block_preds[0]), {}))
            else:
                avail = {}

            for inst in list(block.instructions):
                if isinstance(inst, LoadInst):
                    entry = avail.get(id(inst.pointer))
                    if entry is not None and entry[1].type is inst.type:
                        inst.replace_all_uses_with(entry[1])
                        inst.erase_from_parent()
                        changed = True
                    else:
                        avail[id(inst.pointer)] = (inst.pointer, inst)
                elif isinstance(inst, StoreInst):
                    self._invalidate(avail, inst.pointer, restrict_args)
                    avail[id(inst.pointer)] = (inst.pointer, inst.value)
                elif isinstance(inst, CallInst) and not inst.is_pure:
                    avail.clear()
            avail_out[id(block)] = avail
        return changed

    @staticmethod
    def _invalidate(avail: Dict[int, Tuple[Value, Value]], store_ptr: Value,
                    restrict_args: Set[str]) -> None:
        stale = [key for key, (ptr, _) in avail.items()
                 if may_alias(ptr, store_ptr, restrict_args)]
        for key in stale:
            del avail[key]


def run_load_elim(func: Function) -> bool:
    """Convenience wrapper."""
    return LoadElimination().run(func)
