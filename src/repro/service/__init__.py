"""Simulation-as-a-service: a REST front-end over the sweep harness.

The package splits transport from policy:

* :mod:`repro.service.schemas` -- the api-versioned JSON wire format,
  shared with the CLI (``repro sweep --spec FILE`` reads the same spec
  documents ``POST /sweeps`` accepts);
* :mod:`repro.service.service` -- :class:`SweepService`, the
  transport-agnostic job queue with per-client quotas, shared
  results-store caching and drain-path cancellation;
* :mod:`repro.service.server` -- :class:`ServiceServer`, the stdlib
  ``http.server`` HTTP/1.1 + SSE skin (``repro serve`` runs it);
* :mod:`repro.service.client` -- a stdlib client plus the scripted
  session CI drives against a live server.

The wire format round-trips the declarative sweep surface:

>>> from repro import SweepSpec
>>> from repro.service import spec_from_dict, spec_to_dict
>>> spec = SweepSpec(schemes=("isrb",), max_ops=4_000)
>>> spec_from_dict(spec_to_dict(spec)) == spec
True
>>> spec_from_dict({"max_opss": 1})  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
    ...
repro.service.schemas.SchemaError: unknown spec field(s) ['max_opss']; ...

See ``docs/service.md`` for the HTTP API reference.
"""

from repro.service.schemas import (API_VERSION, SchemaError, parse_submission,
                                   spec_from_dict, spec_to_dict)
from repro.service.service import (QueueFull, QuotaExceeded, SweepJob,
                                   SweepService, UnknownJob)
from repro.service.server import ServiceServer

__all__ = [
    "API_VERSION",
    "SchemaError",
    "parse_submission",
    "spec_from_dict",
    "spec_to_dict",
    "QueueFull",
    "QuotaExceeded",
    "SweepJob",
    "SweepService",
    "UnknownJob",
    "ServiceServer",
]
