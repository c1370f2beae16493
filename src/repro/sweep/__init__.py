"""Parallel sweep engine with content-addressed result caching.

Every figure and table of the paper is a sweep over independent join
configurations.  This package runs those sweeps efficiently:

* each configuration is *fingerprinted* — hashed together with a code
  version salt into a deterministic content hash (:mod:`fingerprint`);
* previously computed results are served from a persistent on-disk JSON
  cache keyed by that hash (:mod:`cache`);
* cache misses fan out across worker processes with ordered result
  collection and progress reporting (:mod:`runner`).

The experiment drivers (``repro.experiments``) submit their points
through a :class:`~repro.sweep.runner.SweepRunner` instead of looping
inline; ``--jobs 1`` without a cache reproduces the original in-order,
single-process execution exactly.
"""

from repro.sweep.fingerprint import CODE_VERSION, canonical_json, task_fingerprint
from repro.sweep.tasks import execute_task

__all__ = [
    "CODE_VERSION",
    "canonical_json",
    "execute_task",
    "task_fingerprint",
]
