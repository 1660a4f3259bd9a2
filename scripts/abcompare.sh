#!/usr/bin/env bash
# A/B byte-compare: prove two revisions produce identical artifacts on
# the unchanged experiment pipeline.
#
#   scripts/abcompare.sh REV_A [REV_B] [-- suite-artifact...]
#   scripts/abcompare.sh HEAD~1                 # HEAD~1 vs the working tree
#   scripts/abcompare.sh main HEAD              # two commits
#   scripts/abcompare.sh HEAD -- fig7 fig8      # subset, vs the working tree
#
# REV_B defaults to the working tree (uncommitted edits included).  A
# named revision is exported with `git archive` into a scratch
# directory and run from there with PYTHONPATH=<tree>/src, so neither
# side sees the other's source.  Each side runs the quick suite (every
# registered artifact, or the given subset), the fig3/fig10 CLI
# renderings, and three campaigns at one trial per scenario: the
# builtin `perf` and `security` grids (the perf, covert and AES trial
# kinds) and a perf grid over abo_acb/tprac/rfmpb/obfuscation
# at one and two channels (the solved TB-Window and BAT, and the
# per-channel seeds).  The result trees are diffed byte-for-byte after
# dropping the advisory wall-clock keys (elapsed_seconds, cache_key)
# that never participate in result identity, and the campaign
# documents' checksum, which covers the per-trial wall clock.  A
# campaign.json index lists scenarios in grid order, but revisions
# from before that fix wrote completion order, so its entries are
# still sorted by scenario id first.  The campaigns' heartbeat.jsonl
# (timestamps) is not compared.
#
# This is what licenses a refactor or deletion: if the bytes do not
# move between the parent and the change, the change moved nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

usage="usage: abcompare.sh REV_A [REV_B] [-- suite-artifact...]"
rev_a="${1:?$usage}"
shift
rev_b=""
if (($#)) && [[ "$1" != "--" ]]; then
    rev_b="$1"
    shift
fi
if (($#)) && [[ "$1" == "--" ]]; then
    shift
fi
only=("$@")

cleanup_dirs=()
cleanup() {
    if ((${#cleanup_dirs[@]})); then
        rm -rf "${cleanup_dirs[@]}"
    fi
}
trap cleanup EXIT

describe() {
    # "REV (short sha)" for a revision, "working tree" for the empty one.
    if [[ -z "$1" ]]; then
        echo "working tree"
        return
    fi
    local sha
    sha="$(git rev-parse --short "$1^{commit}")"
    if [[ "$sha" == "$1" ]]; then
        echo "$1"
    else
        echo "$1 ($sha)"
    fi
}

checkout() {
    # Set $tree to one side's source: the repo itself for the working
    # tree, else a fresh `git archive` export of the revision.
    local rev="$1"
    if [[ -z "$rev" ]]; then
        tree="$repo"
        return
    fi
    tree="$(mktemp -d)"
    cleanup_dirs+=("$tree")
    git archive --format=tar "$rev" | tar -x -C "$tree"
}

run_side() {
    local tree="$1" out="$2"
    local only_flag=()
    if ((${#only[@]})); then
        only_flag=(--only "${only[@]}")
    fi
    (
        cd "$tree"
        export PYTHONPATH="$tree/src${PYTHONPATH:+:$PYTHONPATH}"
        # --no-cache: both sides must recompute, or a shared cache would
        # make the compare vacuous.
        python -m repro.cli suite --jobs 2 \
            --out "$out/suite" --no-cache "${only_flag[@]}" > /dev/null
        python -m repro.cli fig3 > "$out/fig3.txt"
        python -m repro.cli fig10 > "$out/fig10.txt"
        for name in perf security; do
            python -m repro.cli --quiet campaign --campaign "$name" \
                --trials 1 --jobs 2 --out "$out/campaign-$name" > /dev/null
        done
        python -m repro.cli --quiet campaign --grid attack=perf \
            workload=433.milc nbo=256 \
            mitigation=abo_acb,tprac,rfmpb,obfuscation channels=1,2 \
            --trials 1 --jobs 2 --out "$out/campaign-channels" > /dev/null
        rm -f "$out"/campaign-*/heartbeat.jsonl
    )
}

strip_volatile() {
    # Drop advisory wall-clock metadata in place, normalizing key order
    # so the remaining content diffs byte-for-byte.
    python - "$1" <<'PY'
import json, pathlib, sys

VOLATILE = {"elapsed_seconds", "cache_key"}
# A campaign document's checksum covers its trials' wall clock.
CAMPAIGN_VOLATILE = VOLATILE | {"checksum"}

def scrub(node, volatile):
    if isinstance(node, dict):
        return {
            k: scrub(v, volatile) for k, v in node.items() if k not in volatile
        }
    if isinstance(node, list):
        return [scrub(item, volatile) for item in node]
    return node

for path in sorted(pathlib.Path(sys.argv[1]).rglob("*.json")):
    campaign = path.parent.name.startswith("campaign-")
    doc = scrub(
        json.loads(path.read_text()),
        CAMPAIGN_VOLATILE if campaign else VOLATILE,
    )
    if campaign and path.name == "campaign.json":
        doc.sort(key=lambda entry: entry["experiment"])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
PY
    # The CLI renderings end with an advisory "---- <name> done in X.Xs"
    # wall-clock line; everything above it must match exactly.
    sed -i '/^---- .* done in [0-9.]*s$/d' "$1"/*.txt
}

for rev in "$rev_a" "$rev_b"; do
    if [[ -n "$rev" ]] && ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
        echo "abcompare: unknown revision '$rev'" >&2
        exit 2
    fi
done
label_a="$(describe "$rev_a")"
label_b="$(describe "$rev_b")"
checkout "$rev_a"
tree_a="$tree"
checkout "$rev_b"
tree_b="$tree"
dir_a="$(mktemp -d)"
dir_b="$(mktemp -d)"
cleanup_dirs+=("$dir_a" "$dir_b")

echo "abcompare: side A ($label_a)"
run_side "$tree_a" "$dir_a"
echo "abcompare: side B ($label_b)"
run_side "$tree_b" "$dir_b"

strip_volatile "$dir_a"
strip_volatile "$dir_b"

if ! diff -r "$dir_a" "$dir_b"; then
    echo "abcompare: FAIL — $label_b diverges from $label_a" >&2
    exit 1
fi
count="$(find "$dir_a" -type f | wc -l)"
echo "abcompare: OK — $count artifacts byte-identical ($label_a vs $label_b)"
