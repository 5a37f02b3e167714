"""Deployment (Figure 1, stage 4): a web server exposing the HPC-GPT API
plus a minimal GUI, a matching client, and the async job queue behind
the scan and update endpoints (:mod:`repro.serve.jobs`)."""

from repro.serve.server import (
    HPCGPTRequestHandler,
    ServedSystem,
    ServingFrontend,
    make_server,
    serve_forever,
    start_background,
)
from repro.serve.client import HPCGPTClient

__all__ = [
    "HPCGPTRequestHandler",
    "ServedSystem",
    "ServingFrontend",
    "make_server",
    "serve_forever",
    "start_background",
    "HPCGPTClient",
]
