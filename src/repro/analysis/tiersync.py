"""Rule ``tier-sync``: every kernel coverage class derives cleanly.

The specialized kernel tier is *derived* from the python tier: for each
machine shape, :mod:`repro.core.kernel_gen` applies its declared
``FRAGMENTS`` operations (:mod:`repro.core.astrewrite`) to the stage
bodies of ``core/pipeline.py``, respells them through the template's
hoists and the constant-fold table, and compiles the result.  An edit
to a hot path therefore reaches the kernel by construction, unless it
breaks the derivation: an inlined call site the edit changed, a stage
binding that restates no kernel hoist, or a fold no stage reads any
more.  At run time that raises
:class:`~repro.core.astrewrite.SubstitutionError`.

This rule finds the same breakage statically, in the linted tree: it
derives one kernel per coverage class (:func:`generated_kernels`) from
the tree's sources and reports any ``SubstitutionError`` at the
``file:line`` it names.  It also records ``ctx.fragment_coverage``,
the python-tier functions the fragments derive from, for the CI gate.
The derived kernels feed ``hot-path-hygiene``, so the generated loops
keep the fast-path discipline too.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.astrewrite import SubstitutionError, find_function
from ..core.kernel_gen import (FRAGMENTS, TIERSYNC_KEY, KernelDeriver,
                               fragment_functions)
from .model import Finding, LintContext
from .registry import Rule, rule


def _source_of(ctx: LintContext):
    def source_of(relpath: str):
        source = ctx.file(relpath)
        return source.tree if source is not None else None
    return source_of


def coverage_keys():
    """One key per coverage class: the key facts that gate whole
    regions of derived code — runahead on/off and the minimal
    single-thread shape."""
    return (
        ("full", TIERSYNC_KEY),
        ("no-runahead", TIERSYNC_KEY._replace(
            uses_runahead=False, ra_fp_inval=False, num_threads=2)),
        ("minimal", TIERSYNC_KEY._replace(
            num_threads=1, uses_runahead=False, ra_fp_inval=False,
            has_on_cycle=False, skip_enabled=False)),
    )


def generated_kernels(ctx: LintContext):
    """``(label, key, source)`` per coverage class, derived from the
    linted tree (memoized on the context).  Raises
    :class:`SubstitutionError` if the tree no longer derives."""
    cached = getattr(ctx, "_tiersync_kernels", None)
    if cached is None:
        deriver = KernelDeriver(_source_of(ctx))
        cached = [(label, key, deriver.source(key))
                  for label, key in coverage_keys()]
        if cached[0][2] is None:
            raise SubstitutionError(
                "a module the kernel fragments derive from is missing",
                path="core/pipeline.py", line=1)
        ctx._tiersync_kernels = cached
    return cached


@rule
class TierSyncRule(Rule):
    name = "tier-sync"
    description = ("every kernel coverage class must derive from the "
                   "python tier under the FRAGMENTS operations")

    def run(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        try:
            generated_kernels(ctx)
        except SubstitutionError as exc:
            findings.append(Finding(rule=self.name,
                                    path=exc.path or "core/pipeline.py",
                                    line=exc.line or 1, message=str(exc)))
        lines_covered = 0
        functions = set()
        for frag in FRAGMENTS:
            for relpath, qualname in fragment_functions(frag):
                node = self._function(ctx, relpath, qualname)
                if node is None or (relpath, qualname) in functions:
                    continue
                functions.add((relpath, qualname))
                lines_covered += (node.end_lineno or node.lineno) \
                    - node.lineno + 1
        ctx.fragment_coverage = {
            "fragments": len(FRAGMENTS),
            "functions": sorted(f"{path}:{name}" for path, name in functions),
            "lines_covered": lines_covered,
        }
        return findings

    @staticmethod
    def _function(ctx: LintContext, relpath: str,
                  qualname: str) -> Optional[object]:
        source = ctx.file(relpath)
        return find_function(source.tree, qualname) \
            if source is not None else None
