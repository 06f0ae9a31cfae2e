#!/usr/bin/env bash
# Same-box A/B of the repository benchmark (`perfbench`) between two
# revisions.
#
#   scripts/ab_perfbench.sh REV_A REV_B WORKLOAD [PAIRS] [--smoke]
#
# Builds each revision's perfbench in a detached git worktree under
# target/ab/<commit> (once when both revisions are the same commit), then
# runs PAIRS (default 10) pairs of untraced runs of WORKLOAD for
# BENCHMARK.json's run_seconds each. Pair i runs on seed 101 + i, REV_A
# first on even pairs and REV_B first on odd ones, so drift on the box hits
# both sides alike. --smoke passes --smoke to perfbench and runs each side
# for one second: a check of the tooling, not a measurement.
#
# Fails unless every run is correct with `failed: 0` and both sides print
# the same `inputs` note for each seed. Prints each side's median and
# quartiles of every end-to-end metric in BENCHMARK.json, the ratio of the
# medians, and how many pairs REV_B won.
set -euo pipefail

usage() {
    echo "usage: $0 REV_A REV_B WORKLOAD [PAIRS] [--smoke]" >&2
    exit 2
}

smoke=()
args=()
for arg in "$@"; do
    if [[ $arg == --smoke ]]; then smoke=(--smoke); else args+=("$arg"); fi
done
((${#args[@]} == 3 || ${#args[@]} == 4)) || usage
rev_a=${args[0]}
rev_b=${args[1]}
workload=${args[2]}
pairs=${args[3]:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
sha_a=$(git rev-parse --verify --quiet "$rev_a^{commit}") || { echo "unknown revision $rev_a" >&2; exit 2; }
sha_b=$(git rev-parse --verify --quiet "$rev_b^{commit}") || { echo "unknown revision $rev_b" >&2; exit 2; }
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
((${#smoke[@]} == 0)) || seconds=1

# Builds the perfbench of commit $1 in its worktree.
build() {
    local tree="$root/target/ab/$1"
    if [[ ! -e $tree/.git ]]; then
        git worktree prune
        git worktree add --detach "$tree" "$1" >&2
    fi
    echo "building perfbench at ${1:0:12}" >&2
    cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml" >&2
}

build "$sha_a"
[[ $sha_b == "$sha_a" ]] || build "$sha_b"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
# Runs side $1 (a or b) on seed $2; its output goes to $out/$1.$2.
run() {
    local sha=$sha_a
    [[ $1 == a ]] || sha=$sha_b
    local tree="$root/target/ab/$sha"
    if ! (cd "$tree" && perfbench/target/release/perfbench --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 "${smoke[@]}") >"$out/$1.$2" 2>&1; then
        echo "side $1, seed $2: perfbench exited non-zero" >&2
        status=1
    fi
}

seeds=()
for ((i = 0; i < pairs; i++)); do
    seed=$((101 + i))
    seeds+=("$seed")
    if ((i % 2 == 0)); then order=(a b); else order=(b a); fi
    echo "pair $((i + 1))/$pairs: seed $seed, ${order[0]} first" >&2
    for side in "${order[@]}"; do
        run "$side" "$seed"
    done
done

python3 - "$out" "${rev_a} (${sha_a:0:12})" "${rev_b} (${sha_b:0:12})" "$workload" "$seconds" \
    "${seeds[@]}" <<'EOF' || status=1
import json
import statistics
import sys

out, label_a, label_b, workload, seconds, *seeds = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
problems = []


def read(side, seed):
    lines = open(f"{out}/{side}.{seed}").read().splitlines()
    inputs = [line for line in lines if line.startswith("inputs ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"side {side}, seed {seed}: no result line")
        return inputs, {}
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(
            f"side {side}, seed {seed}: correct {result.get('correct')}, "
            f"failed {result.get('failed')}"
        )
    return inputs, {name: m["value"] for name, m in result.get("metrics", {}).items()}


runs = {}
for seed in seeds:
    (inputs_a, runs["a", seed]), (inputs_b, runs["b", seed]) = read("a", seed), read("b", seed)
    if not inputs_a or inputs_a != inputs_b:
        problems.append(f"seed {seed}: inputs differ: {inputs_a} != {inputs_b}")


def summary(values):
    """The median and quartiles of `values`, as `median [q1, q3]`."""
    q1, median, q3 = values * 3 if len(values) < 2 else statistics.quantiles(
        values, n=4, method="inclusive"
    )
    return f"{number(median)} [{number(q1)}, {number(q3)}]"


def number(value):
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


print(f"A = {label_a}, B = {label_b}")
print(f"workload {workload}, {len(seeds)} pairs of {seconds} s runs, seeds {seeds[0]}-{seeds[-1]}")
print(f"{'metric':<16} {'unit':<5} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'B/A':>7} {'B won':>7}")
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(runs["a", s].get(name), runs["b", s].get(name)) for s in seeds]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    if len(pairs) < len(seeds):
        problems.append(f"{name}: missing from {len(seeds) - len(pairs)} pairs")
    if not pairs:
        continue
    a_values, b_values = [a for a, _ in pairs], [b for _, b in pairs]
    won = sum((b > a) if higher else (b < a) for a, b in pairs)
    a_median = statistics.median(a_values)
    ratio = statistics.median(b_values) / a_median if a_median else float("nan")
    print(
        f"{name:<16} {metric['unit']:<5} {summary(a_values):>30} {summary(b_values):>30} "
        f"{ratio:>7.3f} {won:>4}/{len(pairs)}"
    )

for problem in problems:
    print(f"FAILED {problem}")
sys.exit(1 if problems else 0)
EOF
exit "$status"
