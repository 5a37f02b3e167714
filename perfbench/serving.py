"""The serve-mixed workload's traffic: closed-loop mixed requests against
the serving frontend (``repro.serve.server.ServingFrontend``, the layer
behind every HTTP handler) in this process.

A round is one fixed block of requests: every question of a fixed
Task-1 set asked plainly (decode) and with retrieval (index search), a
seeded, length-stratified sample of DRB kernels to detect (prefill-only
scoring), and a few knowledge ingests, each followed on the same client
by a retrieval question whose answer only the ingested document holds.
:data:`CLIENTS` client threads share the round in a closed loop: each
sends its next request when its previous one returns, so concurrent
requests meet in the frontend's micro-batching queues.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Closed-loop client threads (enough to fill the frontend's micro-batches).
CLIENTS = 4
#: Kernels to detect per round, one from each length stratum of the suite.
DETECT_PER_ROUND = 32
#: Knowledge ingests per round.
INGESTS_PER_ROUND = 2
#: Kernels longer than this are the suite's long-header stress inputs; the
#: scan workloads score them, serving traffic leaves them out.
LONG_KERNEL_CHARS = 5000


@dataclass
class Request:
    kind: str  # "answer", "rag", "detect", "ingest" or "fact"
    payload: object
    #: What a correct reply equals (answer, detect), contains (fact),
    #: or None when only a non-empty answer is required.
    expect: object = None
    then: "Request | None" = None  # sent by the same client once this returns


@dataclass
class Outcome:
    kind: str
    latency_s: float
    ok: bool
    error: str = ""


def make_inputs(seed: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The fixed question set and this seed's kernels to detect.

    Answer latency is bimodal (an early end of sequence, or the full 40
    tokens), so the questions are one fixed set rather than a per-seed
    sample, which would move the round time by itself.  Kernels are
    drawn one per length stratum, so every seed detects a similar total
    length."""
    from repro.drb import DRBSuite
    from repro.eval.task1_eval import build_qa_set
    from repro.knowledge import build_mlperf_table, build_plp_catalog

    qa = build_qa_set(build_plp_catalog(8, seed=0), build_mlperf_table(24, seed=0), seed=0)
    questions = list(dict.fromkeys(q.question for q in qa))
    specs = sorted(
        (s for s in DRBSuite.evaluation(seed).specs if len(s.source) <= LONG_KERNEL_CHARS),
        key=lambda s: (len(s.source), s.id),
    )
    rng = np.random.default_rng([seed, 3])
    strata = np.array_split(np.arange(len(specs)), DETECT_PER_ROUND)
    picks = [specs[int(rng.choice(stratum))] for stratum in strata]
    kernels = [(s.source, s.language) for s in picks]
    return questions, kernels


def fact(tag: str) -> tuple[dict, str, str]:
    """A fresh MLPerf-style document, the question it answers, and the
    expected answer."""
    system = f"pb_{tag}_rack"
    accel = f"PB-X{tag}"
    software = f"PBSoft {tag}"
    doc = {
        "text": (f"An MLPerf Training v5.1 submission. Submitter: PerfBench. "
                 f"System: {system}. Accelerator: {accel}. Software: {software}."),
        "source": "perfbench",
        "facts": {"System": system, "Accelerator": accel, "Software": software},
    }
    question = (f"What is the System if the Accelerator used is {accel} "
                f"and the Software used is {software}?")
    return doc, question, system


def expected_results(system, questions: list[str], kernels: list[tuple[str, str]]) -> dict:
    """In-process greedy answers and detections, the reference every
    served reply is checked against."""
    out: dict = {("answer", q): a for q, a in zip(questions, system.answer_batch(questions))}
    by_lang: dict[str, list[str]] = {}
    for code, language in kernels:
        by_lang.setdefault(language, []).append(code)
    for language, codes in by_lang.items():
        codes = sorted(set(codes))
        verdicts = system.detect_race_batch(codes, language=language)
        out.update({("detect", c, language): v for c, v in zip(codes, verdicts)})
    return out


def make_round(
    rng: np.random.Generator,
    questions: list[str],
    kernels: list[tuple[str, str]],
    expected: dict,
    tag: str,
) -> list[Request]:
    """One round's requests in a seeded order."""
    reqs = [Request("answer", q, expected[("answer", q)]) for q in questions]
    reqs += [Request("rag", q) for q in questions]
    reqs += [Request("detect", k, expected[("detect", *k)]) for k in kernels]
    for j in range(INGESTS_PER_ROUND):
        doc, question, answer = fact(f"{tag}_{j}")
        reqs.append(Request("ingest", doc, then=Request("fact", question, answer)))
    return [reqs[int(i)] for i in rng.permutation(len(reqs))]


def _send(frontend, req: Request) -> str:
    """Send one request; return an error message, or '' when correct."""
    if req.kind == "detect":
        got = frontend.detect(*req.payload)
        return "" if got == req.expect else f"verdict {got!r} != {req.expect!r}"
    if req.kind == "ingest":
        got = frontend.ingest([req.payload])
        return "" if got.get("chunks", 0) >= 1 else f"nothing ingested: {got}"
    got = frontend.answer(req.payload, retrieval=req.kind in ("rag", "fact"))
    if not isinstance(got, str) or not got:
        return "empty answer"
    if req.expect is None:
        return ""
    if req.kind == "fact":
        return "" if req.expect in got else f"fact {req.expect!r} not in {got!r}"
    return "" if got == req.expect else f"answer {got!r} != {req.expect!r}"


def run_round(frontend, reqs: list[Request], clients: int = CLIENTS) -> list[Outcome]:
    """Serve ``reqs`` with ``clients`` closed-loop client threads; each
    takes the next request when its previous one (and any follow-up)
    has returned.  A request that raises is a failed outcome."""
    outcomes: list[Outcome] = []
    next_idx = [0]
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = next_idx[0]
                next_idx[0] += 1
            if i >= len(reqs):
                return
            req = reqs[i]
            while req is not None:
                t0 = time.perf_counter()
                try:
                    error = _send(frontend, req)
                except Exception as exc:  # noqa: BLE001 - a failed request, reported
                    error = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                with lock:
                    outcomes.append(Outcome(req.kind, latency, not error, error))
                req = req.then

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes
