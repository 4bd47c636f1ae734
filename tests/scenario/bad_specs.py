"""Gallery specs with one bad field each, shared by the loader, CLI and
HTTP tests: every case must be refused at load with a message naming
the field (CLI exit 2, HTTP 400), never run or crash with a traceback.
"""

import json
from pathlib import Path

from repro.scenario import SpecError
from repro.sim.sharding import ShardConfigError

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

NAN = float("nan")

#: ``(id, gallery file, {dotted path: value}, error type, message
#: fragment)``; a ``[i]`` path part indexes a list.
BAD_SPECS = [
    # Wrong types and shapes: refused by the spec codec.
    ("shards-item-not-object", "chaos_baseline.json",
     {"shards": {"shards": [3]}}, SpecError,
     "shards.shards[0] must be a JSON object, not int"),
    ("retries-multiplier-list", "chaos_baseline.json",
     {"retries.multiplier": []}, SpecError,
     "retries.multiplier must be a number, not list"),
    ("machines-string", "chaos_baseline.json",
     {"topology.clusters.[0].machines": "4"}, SpecError,
     "topology.clusters[0].machines must be an integer, not str"),
    ("max-hedges-string", "chaos_baseline.json",
     {"hedging.max_hedges": "2"}, SpecError,
     "hedging.max_hedges must be an integer, not str"),
    ("cores-fraction", "chaos_baseline.json",
     {"topology.clusters.[0].cores": 8.5}, SpecError,
     "topology.clusters[0].cores must be an integer, not float"),
    ("name-number", "chaos_baseline.json", {"name": 5}, SpecError,
     "name must be a string, not int"),
    ("misspelled-field", "chaos_baseline.json",
     {"topology.datacentre": "dc"}, SpecError,
     "topology.datacentre is not a TopologySpec field"),
    ("cluster-name-repeated", "chaos_baseline.json",
     {"topology.clusters": [{"name": "c", "machines": 2},
                            {"name": "c", "machines": 2}]}, SpecError,
     "topology.clusters[1].name repeats cluster name 'c'"),
    # Workload params: each kind names the params it reads.
    ("misspelled-workload-param", "chaos_baseline.json",
     {"workload.params.n_task": 5}, SpecError,
     "workload.params.n_task is not a uniform-tasks parameter"),
    ("composite-part-misspelled-kind", "chaos_baseline.json",
     {"workload": {"kind": "composite",
                   "params": {"parts": [{"kin": "uniform-tasks"}]}}},
     SpecError, "workload.params.parts[0].kin is not a WorkloadSpec field"),
    ("composite-part-unknown-kind", "chaos_baseline.json",
     {"workload": {"kind": "composite", "params": {"parts": [
         {"kind": "uniform-task", "params": {"n_tasks": 3}}]}}},
     SpecError, "workload.params.parts[0].kind names an unknown workload "
                "kind 'uniform-task'"),
    ("wfformat-no-source", "chaos_baseline.json",
     {"workload": {"kind": "wfformat", "params": {}}}, SpecError,
     "workload.params needs exactly one of document and path"),
    ("wfformat-two-sources", "chaos_baseline.json",
     {"workload": {"kind": "wfformat", "params": {
         "document": {}, "path": "montage.wfformat.json"}}}, SpecError,
     "workload.params needs exactly one of document and path"),
    # Well-typed but out of range: refused by the classes' own checks.
    ("autoscaler-interval-nan", "chaos_baseline.json",
     {"autoscaler": {"policy": "react", "interval": NAN}}, ValueError,
     "autoscaler interval must be positive"),
    ("telemetry-interval-nan", "chaos_slo.json",
     {"slos.telemetry_interval": NAN}, ValueError,
     "telemetry_interval must be positive"),
    ("portfolio-interval-zero", "chaos_baseline.json",
     {"scheduler.portfolio": ["sjf"], "scheduler.portfolio_interval": 0},
     ValueError, "portfolio_interval must be positive"),
    ("portfolio-interval-nan", "chaos_baseline.json",
     {"scheduler.portfolio": ["sjf"],
      "scheduler.portfolio_interval": NAN},
     ValueError, "portfolio_interval must be positive"),
    ("link-latency-nan", "planet_scale.json",
     {"shards.links.[0].latency": NAN}, ShardConfigError,
     "non-positive latency nan"),
    ("epoch-nan", "planet_scale.json", {"shards.epoch": NAN},
     ShardConfigError, "epoch must be positive, got nan"),
]

IDS = [case[0] for case in BAD_SPECS]


def bad_spec(name: str, updates: dict) -> dict:
    """The gallery spec ``name`` as plain data with ``updates`` applied."""
    data = json.loads((SPECS / name).read_text(encoding="utf-8"))
    for path, value in updates.items():
        node = data
        *parents, last = [int(part[1:-1]) if part.startswith("[") else part
                          for part in path.split(".")]
        for part in parents:
            node = node[part]
        node[last] = value
    return data
