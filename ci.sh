#!/bin/sh
# Offline-first CI gate. The workspace has zero third-party dependencies,
# so everything here must pass with no network access (--offline).
# dso-bench (the figure/table binaries) is a workspace member: it is built,
# linted and tested with the rest, and the test stage diffs the Table-1
# binary's stdout against the committed results/table1.txt.
#
# Usage: ./ci.sh [lint|test]
#   lint — fmt check, clippy, rustdoc (the static stages)
#   test — build, tests, Table 1, bench, resume drill, serve drill (the
#          run stages)
# With no argument both groups run, in lint-first order. The GitHub
# workflow runs the two groups as parallel jobs.
set -eu

cd "$(dirname "$0")"

stage="${1:-all}"
case "$stage" in
lint | test | all) ;;
*)
    echo "usage: $0 [lint|test]" >&2
    exit 2
    ;;
esac

if [ "$stage" = "lint" ] || [ "$stage" = "all" ]; then
    echo "==> fmt (check only)"
    if cargo fmt --version >/dev/null 2>&1; then
        cargo fmt --all --check
    else
        echo "    rustfmt not installed; skipped"
    fi

    echo "==> clippy (offline, deny warnings)"
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --workspace --all-targets -q --offline -- -D warnings
    else
        echo "    clippy not installed; skipped"
    fi

    echo "==> doc (offline, deny rustdoc warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --offline
fi

if [ "$stage" = "test" ] || [ "$stage" = "all" ]; then
    echo "==> build (release, offline)"
    cargo build --release --workspace -q --offline

    echo "==> test (offline)"
    cargo test --workspace -q --offline

    echo "==> table1 (release, stdout must match results/table1.txt)"
    # Regenerates the paper's Table 1 (about a minute on a 2-core host) and
    # fails on any byte of difference from the committed table. Progress
    # lines go to stderr and are not compared.
    cargo run --release -q --offline -p dso-bench --bin table1 | diff results/table1.txt -

    echo "==> bench (release, emits BENCH_campaign.json + results/ copy)"
    # Times serial vs parallel campaigns and exits non-zero if the parallel
    # output diverges from serial, the warm-start saving regresses below 20%,
    # the cached repeat campaign is less than 5x faster than its cold run (the
    # evaluation-cache gate; hit rate and dedup count land in the JSON), the
    # modified-Newton fast path is less than 1.5x the
    # legacy full-Newton throughput (or reuses fewer than half its LU
    # factorizations, or shifts the extracted border), the three-design
    # sweep shares no healthy-reference grid across its equal-plan designs
    # (the cross_design_dedup_rate figure), or a derived figure regresses
    # >25% vs the committed BENCH_baseline.json (including the
    # lower-is-better serve_p99_ms latency figure).
    # Refresh the baseline after an intentional perf change with:
    #   cargo run --release --example bench_campaign -- --write-baseline
    cargo run --release -q --offline --example bench_campaign

    echo "==> resume drill (kill-and-resume the persistent result store)"
    # Tears a result store mid-append with injected short writes, reopens it,
    # and resumes the campaign. Exits non-zero if recovery drops a clean
    # record, the resume re-simulates persisted work, or the resumed border
    # diverges. Recovery stats land in results/RESUME_drill-<stamp>.json.
    cargo run --release -q --offline --example resume_campaign

    echo "==> serve drill (mixed-workload soak of the service daemon)"
    # Replays a seeded interleave of interactive queries over a bulk
    # campaign against the embedded daemon at 1/2/4/8 workers. Exits
    # non-zero on any divergence from the direct Session results (the
    # service determinism contract), any dropped/duplicated response or
    # protocol error, an interactive-class p99 beyond the hard gate, or
    # broken abort semantics (deadline, cancel, queue_full backpressure).
    # Latency histograms, queue stats, and cancellation counts land in
    # results/SERVE_drill-<stamp>.json.
    cargo run --release -q --offline --example serve_drill
fi

echo "==> ci: OK ($stage)"
