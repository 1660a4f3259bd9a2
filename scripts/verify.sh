#!/usr/bin/env bash
# The regression net, in order: no tracked bytecode; tier-1 tests; a
# 2-artifact parallel suite run; every example; the 12-scenario smoke
# campaign and its resume; sanitized perf scenarios; the whole quick suite with every controller sanitized;
# traced perf scenarios and their telemetry; the custom lints; and
# perfbench's output check (digests and invariants).  Any failing leg
# stops the script non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Single cleanup trap: successive `trap ... EXIT` lines REPLACE each
# other (only the last would fire), so every temp dir registers here
# and one handler removes them all.
cleanup_dirs=()
cleanup() {
    # Length guard: expanding an empty array under `set -u` errors on
    # bash < 4.4.
    if ((${#cleanup_dirs[@]})); then
        rm -rf "${cleanup_dirs[@]}"
    fi
}
trap cleanup EXIT

echo "== lint: no committed bytecode =="
# Bytecode must never be tracked (.gitignore covers the working tree;
# this guards the index so a force-add cannot slip through review).
if git ls-files -- '*.pyc' '*.pyo' '*__pycache__*' | grep .; then
    echo "error: compiled bytecode is tracked by git (see above)" >&2
    exit 1
fi

echo "== tier-1: full test suite =="
python -m pytest -x -q

echo "== suite: 2-artifact parallel run =="
out_dir="$(mktemp -d)"
cleanup_dirs+=("$out_dir")
python -m repro.cli suite --jobs 2 --only fig7 fig8 --out "$out_dir" --no-cache

echo "== examples: every script runs =="
# Nothing else runs examples/: an example still using a removed public
# name would otherwise break unnoticed.
for example in examples/*.py; do
    if ! python "$example" > /dev/null; then
        echo "error: $example exited non-zero" >&2
        exit 1
    fi
done

echo "== campaign: 12-scenario smoke grid (pool + resume) =="
camp_dir="$(mktemp -d)"
cleanup_dirs+=("$camp_dir")
python -m repro.cli campaign --campaign smoke --trials 3 --jobs 2 --out "$camp_dir"
# re-run with --resume: every scenario must be served from cache
resume_out="$(python -m repro.cli campaign --campaign smoke --trials 3 --jobs 2 \
    --out "$camp_dir" --resume)"
grep -q cached <<<"$resume_out"

echo "== campaign: sanitized perf scenarios (protocol-checker smoke) =="
# Perf scenarios with the DRAM protocol sanitizer attached: a timing
# violation anywhere in the served command stream would raise
# ProtocolViolation and fail this leg.  TPRAC's TB-RFMs and the
# periodic REFs land on a channel with open banks, so the leg covers
# Channel.block closing only those banks under its lazy ready floor.
san_dir="$(mktemp -d)"
cleanup_dirs+=("$san_dir")
python -m repro.cli campaign --grid sanitize=true \
    mitigation=abo_only,tprac,qprac requests_per_core=5000 --trials 1 \
    --jobs 2 --out "$san_dir"

echo "== suite: quick suite with every controller sanitized =="
# The whole quick suite, in this process, with the default system
# swapped for SystemConfig(sanitize=True) in the controller module,
# its one reader: every controller any artifact builds carries the
# protocol checker, so a timing violation anywhere ends its artifact
# `error`.
# The leg also fails if no checker was built (the swap missed).
san_suite_dir="$(mktemp -d)"
cleanup_dirs+=("$san_suite_dir")
python - "$san_suite_dir" <<'EOF'
import sys

from repro.config import SystemConfig
from repro.controller import controller
from repro.experiments.runner import load_summary, run_suite

built = []


class CountingChecker(controller.ProtocolChecker):
    def __init__(self, config):
        super().__init__(config)
        built.append(self)


controller.DEFAULT_SYSTEM = SystemConfig(sanitize=True)
controller.ProtocolChecker = CountingChecker
run_suite(sys.argv[1], jobs=1, use_cache=False)
summary = load_summary(sys.argv[1])
errors = [entry["experiment"] for entry in summary if entry["status"] == "error"]
assert not errors, f"artifacts ended error under the sanitizer: {errors}"
assert built, "no ProtocolChecker was built"
print(f"sanitized quick suite: {len(summary)} artifacts ok, {len(built)} checkers")
EOF

echo "== campaign: traced perf scenarios (telemetry smoke) =="
# Two perf scenarios with the full telemetry layer attached, one with
# TPRAC's all-bank TB-RFMs and one with RFMpb's per-bank TB-RFMs.  The
# runs must produce a loadable Chrome trace, a metrics file per trial
# and a heartbeat stream that `obs report` can summarize.  Each metrics
# file must also count: its rfm.* counters add up to the trial's `rfms`
# metric (one trial, so the scenario mean is that trial's value), it
# saw at least one REFab, and the sampler fired on its own at least
# once (5,000 requests per core last about five 10 us sampling
# intervals; the default 600 end before the first).
obs_dir="$(mktemp -d)"
cleanup_dirs+=("$obs_dir")
python -m repro.cli campaign --grid trace=true metrics=true \
    mitigation=tprac,rfmpb requests_per_core=5000 --trials 1 --jobs 2 \
    --out "$obs_dir" --progress
ls "$obs_dir"/obs/trace-*.chrome.json "$obs_dir"/obs/metrics-*.json \
    "$obs_dir"/heartbeat.jsonl > /dev/null
python -c "import json, sys, glob
path = glob.glob(sys.argv[1] + '/obs/trace-*.chrome.json')[0]
doc = json.load(open(path))
assert doc['traceEvents'], 'empty Chrome trace'
" "$obs_dir"
python -c "import glob, json, os, re, sys
root = sys.argv[1]
paths = sorted(glob.glob(root + '/obs/metrics-*.json'))
assert len(paths) == 2, paths
for path in paths:
    scenario_id = re.fullmatch(r'metrics-(.+)-s\d+\.json', os.path.basename(path))[1]
    metrics = json.load(open(path))
    assert metrics['samples'] >= 2, (path, metrics['samples'])
    counters = metrics['registry']['counters']
    scenario = json.load(open(root + '/scenario-' + scenario_id + '.json'))
    rfms = scenario['metrics']['rfms']['mean']
    exported = sum(v for k, v in counters.items() if k.startswith('rfm.'))
    assert exported == rfms > 0, (path, exported, rfms)
    assert counters['dram.refab'] > 0, (path, counters['dram.refab'])
" "$obs_dir"
obs_report="$(python -m repro.cli obs report "$obs_dir")"
grep -q 'heartbeat:' <<<"$obs_report"

echo "== lints: custom invariant suite =="
python -m tools.repro_lints

echo "== perfbench: output check (digests + invariants) =="
# One pass of every op of the three benchmark workloads: each op's
# digest of simulated outputs must equal perfbench/references.json
# and every invariant must hold, or the run exits non-zero.  Speed is
# not gated here: BENCHMARK.json's parent-vs-change runs on one host
# judge performance.
python3 perfbench/run.py --workload all --seconds 0

echo "verify: OK"
