"""Report bytes are pinned: a sha256 over report JSON plus rendered text.

Any change that is meant to leave adil's output alone must keep these
digests. One digest covers each benchmark workload (its items at seeds 3 and
17, graded through the benchmark's own pipeline), and one covers the 21
corpus programs graded as `adil analyze` grades them. A change that alters
reports on purpose re-derives the pins and says why.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from adil import debugger, explain, flowgraph, frontend
from adil.planlib import load_plan_base

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402

SEEDS = (3, 17)

WORKLOAD_DIGESTS = {
    "class-batch": "b1d63a53c419e1ba3b6f22f7696bdfc3e252bee5ea454a00b5080577baaa3a5d",
    "large-program": "b0cb8a2f4f933efc9332325a2927aa7c052d71ee6ceba7fedc0fb7d8006cada6",
    "dense-chain": "d8d39df7a3802bdb9cff8e0c332c8ccc88bdbe870a0a3c670e4afd39ad39f59c",
    "authoring": "96925c418718b098c0ed603d46a7e8b3df7bebbbbb96a5851eeeb9fb0e730300",
}
CORPUS_DIGEST = "2b9dc9385681b5eef50504ffe5d79d81ca1c809392e8152024ad1e19de569904"


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for report_json, text in outputs:
        for part in (report_json, text):
            data = part.encode("utf-8")
            h.update(len(data).to_bytes(8, "big"))
            h.update(data)
    return h.hexdigest()


def workload_digest(workload: str) -> str:
    outputs = []
    for seed in SEEDS:
        items = workloads.make_items(workload, seed, ROOT)
        setup = pipeline.setup(ROOT, workload, workloads.spec_texts(items))
        run_item = pipeline.run_item(workload)
        for item in items:
            outcome = run_item(item, setup)
            outputs.append((outcome.report_json, outcome.text))
    return _digest(outputs)


def corpus_digest(corpus_cases) -> str:
    base = load_plan_base(ROOT / "plans")
    outputs = []
    for prog, spec_path in corpus_cases:
        name = prog.relative_to(ROOT).as_posix()
        source = prog.read_text(encoding="utf-8")
        spec = debugger.parse_spec(spec_path.read_text(encoding="utf-8"), spec_path.name)
        ast = frontend.desugar(frontend.parse_c(source, filename=name))
        try:
            report = debugger.diagnose(flowgraph.build_flow_graph(ast), spec, base)
        except flowgraph.UnboundVariable as err:
            report = debugger.unbound_report(name, spec, err)
        text = explain.render_text(explain.render(report, source, base))
        outputs.append((debugger.report_to_json(report), text))
    return _digest(outputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_are_byte_identical(workload):
    assert workload_digest(workload) == WORKLOAD_DIGESTS[workload]


def test_corpus_reports_are_byte_identical(corpus_cases):
    assert len(corpus_cases) == 21
    assert corpus_digest(corpus_cases) == CORPUS_DIGEST
