#!/usr/bin/env bash
# Cheap regression net: tier-1 tests must collect cleanly and pass,
# and the parallel suite executor must complete a 2-artifact run.
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

echo "== campaign: 12-scenario smoke grid (pool + resume) =="
camp_dir="$(mktemp -d)"
cleanup_dirs+=("$camp_dir")
python -m repro.cli campaign --campaign smoke --trials 3 --jobs 2 --out "$camp_dir"
# re-run with --resume: every scenario must be served from cache
resume_out="$(python -m repro.cli campaign --campaign smoke --trials 3 --jobs 2 \
    --out "$camp_dir" --resume)"
grep -q cached <<<"$resume_out"

echo "== campaign: channel-count sweep (multi-channel smoke) =="
chan_dir="$(mktemp -d)"
cleanup_dirs+=("$chan_dir")
python -m repro.cli campaign --grid channels=1,2,4 --trials 1 --jobs 2 \
    --out "$chan_dir"

echo "== campaign: scheduler x mapping sweep (registry smoke) =="
sched_dir="$(mktemp -d)"
cleanup_dirs+=("$sched_dir")
python -m repro.cli campaign --grid scheduler=fr_fcfs,fcfs \
    mapping=linear,mop --trials 1 --jobs 2 --out "$sched_dir"

echo "== campaign: cache x interconnect sweep (hierarchy smoke) =="
# Both links with and without the hierarchy: cache=none exercises the
# InterconnectFront shim, cache=l1l2 the full L1/L2 + MSHR front-end
# behind each link.
cache_dir="$(mktemp -d)"
cleanup_dirs+=("$cache_dir")
python -m repro.cli campaign --grid cache=none,l1l2 \
    interconnect=fixed,crossbar --trials 1 --jobs 2 --out "$cache_dir"

echo "== campaign: sanitized perf scenarios (protocol-checker smoke) =="
# Perf scenarios with the DRAM protocol sanitizer attached: a timing
# violation anywhere in the served command stream would raise
# ProtocolViolation and fail this leg.  TPRAC's TB-RFMs and the
# periodic REFs land on channels with open banks, so the leg covers
# Channel.block closing only those banks under its lazy ready floor.
san_dir="$(mktemp -d)"
cleanup_dirs+=("$san_dir")
python -m repro.cli campaign --grid sanitize=true \
    mitigation=abo_only,tprac,qprac requests_per_core=5000 --trials 1 \
    --jobs 2 --out "$san_dir"

echo "== campaign: sanitized non-default schedulers (protocol-checker smoke) =="
# The same checker under the other two schedulers: the controller
# serves the banks its ready-time agenda says are due, in ascending
# bank id, whichever request each scheduler picks within a bank, and
# TPRAC's TB-RFM bursts and the REFs keep marking the agenda stale.
sched_san_dir="$(mktemp -d)"
cleanup_dirs+=("$sched_san_dir")
python -m repro.cli campaign --grid sanitize=true scheduler=fcfs,fr_fcfs_cap \
    mitigation=tprac requests_per_core=2000 --trials 1 --jobs 2 \
    --out "$sched_san_dir"

echo "== campaign: traced perf scenario (telemetry smoke) =="
# One perf scenario with the full telemetry layer attached: the run
# must produce a loadable Chrome trace, a metrics time-series file and
# a heartbeat stream that `obs report` can summarize.
obs_dir="$(mktemp -d)"
cleanup_dirs+=("$obs_dir")
python -m repro.cli campaign --grid trace=true metrics=true --trials 1 \
    --jobs 2 --out "$obs_dir" --progress
ls "$obs_dir"/obs/trace-*.chrome.json "$obs_dir"/obs/metrics-*.json \
    "$obs_dir"/heartbeat.jsonl > /dev/null
python -c "import json, sys, glob
path = glob.glob(sys.argv[1] + '/obs/trace-*.chrome.json')[0]
doc = json.load(open(path))
assert doc['traceEvents'], 'empty Chrome trace'
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
