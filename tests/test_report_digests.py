"""Report and graph bytes are pinned: a sha256 over report JSON plus
rendered text, one over flow-graph JSON and one over flow-graph DOT.

Any change that is meant to leave adil's output alone must keep these
digests. One report digest covers each benchmark workload (its items at
seeds 3 and 17, graded through the benchmark's own pipeline), and one covers
the 21 corpus programs graded as `adil analyze` grades them. The graph
digests cover the same programs, each lowered by `build_flow_graph` as
`adil graph --json` prints it and, for the DOT digests, as `adil graph`
prints it. A change that alters reports or graphs on purpose re-derives the
pins and says why.
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

WORKLOAD_GRAPH_DIGESTS = {
    "class-batch": "33747b42bb70c35fe74c6e39ab7ca829a85882b0d12d3e32503677a5e26e4d2c",
    "large-program": "85f94db6ee7a04852c4ce2f2b602998fff866f81951ec580e5a7242880de7b5e",
    "dense-chain": "fc3c262c522bec34a84c7a8bda8c62ec293935b23cc21a2f69cef615cf7386e9",
    "authoring": "f9e081a1414c711c9011fc28904056ce636e8b4b75743c6835f8eac4702419d1",
}
CORPUS_GRAPH_DIGEST = "80c438876c1816c3d63395a7f884fb04b377b32c980c7389ecc76bd05b5406ed"

WORKLOAD_DOT_DIGESTS = {
    "class-batch": "f261aa8d3463f61fa4bb233bfb3680acbf2f0365cd71a8d5287357ffefcf2e12",
    "large-program": "6afece2f5bd32ed3b978efa7548527a4d295dece326039672e893e32718eeed1",
    "dense-chain": "4191d4c9a0509e208349f0dcad4d39ca24408e43d6ed6784ef65794ad6b61590",
    "authoring": "a76549b48a7f10e18d59d8d8e40c3f97f78603aa8e9bb34326d4b8478743b8fa",
}
CORPUS_DOT_DIGEST = "62dd2ddb526d0bb0376f3e4d48984409b36ec3bc233793669b164d58852986b8"


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def graph_digest(programs, render=flowgraph.to_json) -> str:
    """Digest of each (name, source)'s graph as render writes it (JSON by
    default), or of the UnboundVariable message where the build stops at one."""
    parts = []
    for name, source in programs:
        ast = frontend.desugar(frontend.parse_c(source, filename=name))
        try:
            parts.append(render(flowgraph.build_flow_graph(ast)))
        except flowgraph.UnboundVariable as err:
            parts.append(str(err))
    return _digest(parts)


def _workload_programs(workload: str) -> list[tuple[str, str]]:
    return [(item.name, item.source) for seed in SEEDS
            for item in workloads.make_items(workload, seed, ROOT)]


def _corpus_programs(corpus_cases) -> list[tuple[str, str]]:
    return [(prog.relative_to(ROOT).as_posix(), prog.read_text(encoding="utf-8"))
            for prog, _ in corpus_cases]


def workload_digest(workload: str) -> str:
    outputs = []
    for seed in SEEDS:
        items = workloads.make_items(workload, seed, ROOT)
        setup = pipeline.setup(ROOT, workload, workloads.spec_texts(items))
        run_item = pipeline.run_item(workload)
        for item in items:
            outcome = run_item(item, setup)
            outputs += (outcome.report_json, outcome.text)
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
        outputs += (debugger.report_to_json(report), text)
    return _digest(outputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_are_byte_identical(workload):
    assert workload_digest(workload) == WORKLOAD_DIGESTS[workload]


def test_corpus_reports_are_byte_identical(corpus_cases):
    assert len(corpus_cases) == 21
    assert corpus_digest(corpus_cases) == CORPUS_DIGEST


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_graphs_are_byte_identical(workload):
    assert graph_digest(_workload_programs(workload)) == WORKLOAD_GRAPH_DIGESTS[workload]


def test_corpus_graphs_are_byte_identical(corpus_cases):
    assert graph_digest(_corpus_programs(corpus_cases)) == CORPUS_GRAPH_DIGEST


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_dots_are_byte_identical(workload):
    assert graph_digest(_workload_programs(workload), flowgraph.to_dot) == WORKLOAD_DOT_DIGESTS[workload]


def test_corpus_dots_are_byte_identical(corpus_cases):
    assert graph_digest(_corpus_programs(corpus_cases), flowgraph.to_dot) == CORPUS_DOT_DIGEST
