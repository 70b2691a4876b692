"""Per-process memoization of derived pipeline kernels.

:func:`specialized_run_loop` is the compile-and-cache front of the
derived-kernel tier (:mod:`repro.core.kernel_gen`): the first
pipeline of a given machine shape pays one derivation + ``compile()``
(under 10 ms once the process has derived a kernel of the same
feature combination, about 100 ms for its very first kernel; see
:mod:`repro.core.kernel_gen`); every
subsequent pipeline with an equal
:class:`~repro.core.kernel_gen.KernelKey` — across cells, sweeps and
repeated runs in the same process — reuses the compiled loop.  Worker
processes of the process-pool executor each hold their own cache,
warmed by their first cell (the kernel-tier request travels to workers
via the ``REPRO_KERNEL`` environment knob).

The cache key deliberately excludes the policy *class*: only the folded
policy facts in the key (runahead use, hook presence, skip
eligibility) shape the derived source, so e.g. two icount-family
policies of identical shape share one kernel.

Each kernel is compiled under its own code filename
(:func:`kernel_filename`), so profilers and tracebacks tell the
shapes apart instead of merging them into one ``_kernel_run`` entry.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from .kernel_gen import (KernelKey, derive_kernel_source, kernel_namespace,
                         specialization_key)

_KERNELS: Dict[KernelKey, object] = {}


def kernel_filename(key: KernelKey) -> str:
    """The code filename a kernel compiles under: stable per key."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return f"<kernel-gen:{digest[:12]}>"


def specialized_run_loop(pipeline) -> Optional[object]:
    """The compiled run loop for this pipeline's shape, or None.

    None means the shape is outside the kernel tier's envelope (an
    unregistered policy subclass, too many threads, a python tier
    installed without source); the caller keeps the portable python
    loop.  Never raises on uncovered input; raises
    :class:`~repro.core.astrewrite.SubstitutionError` if the python
    tier drifted from the derivation's declared operations.
    """
    key = specialization_key(pipeline)
    if key is None:
        return None
    kernel = _KERNELS.get(key)
    if kernel is None:
        source = derive_kernel_source(key)
        if source is None:
            return None
        namespace = kernel_namespace()
        exec(compile(source, kernel_filename(key), "exec"), namespace)
        kernel = namespace["_kernel_run"]
        kernel.__kernel_key__ = key
        kernel.__kernel_source__ = source
        _KERNELS[key] = kernel
    return kernel


def cache_info() -> Dict[KernelKey, object]:
    """Snapshot of the process-local kernel cache (tests, diagnostics)."""
    return dict(_KERNELS)


def clear_cache() -> None:
    """Drop all compiled kernels (tests)."""
    _KERNELS.clear()
