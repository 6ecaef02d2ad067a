#!/usr/bin/env bash
# Full local gate: static checks, build, and the test suite under the race
# detector. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module =="
# perfbench is its own Go module (it replaces repro with the checkout),
# so the root `go test ./...` never builds it.
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "== bench smoke =="
# One tiny topology, one rep: proves `firesim bench` still runs end to end
# and emits parseable JSON. Real numbers come from scripts/bench.sh. The
# node bench is skipped here; it gets its own gated pass below.
go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 -out "$(mktemp)" >/dev/null

echo "== fast-path equivalence gate =="
# The predecode cache, fetch memo and quiescent skip must be bit-identical
# to the per-cycle path: self-modifying-code and toggle fuzz at the ISA
# level, the NIC idle-skip arithmetic against its tick loop, and the WFI /
# interrupt-storm / 8-node-faulted-cluster equivalences (sequential and
# parallel schedulers, mid-run checkpoint restored across settings).
go test -count=1 -run 'TestSelfModifyingCode|TestDecodeCacheRandomToggle' ./internal/riscv >/dev/null
go test -count=1 -run 'TestSkipIdleMatchesTickLoop' ./internal/nic >/dev/null
go test -count=1 -run 'TestWFIReceiverSkipEquivalence|TestInterruptStormEquivalence|TestClusterFaultedFastPathEquivalence' ./internal/soc >/dev/null

echo "== switch fast-path gate =="
# The zero-allocation switch datapath must stay bit-identical to the
# straightforward container/heap + copy-per-port reference (token-stream
# fuzz over random port counts, latencies, buffer limits, stall hooks and
# broadcast mixes), must tick dense and idle steady-state rounds without
# a single heap allocation, and must not let the egress rings or the
# packet pool grow without bound under sustained load.
go test -count=1 \
    -run 'TestSwitchStreamEquivalenceFuzz|TestSwitchZeroSteadyStateAllocs|TestOutQueueNoCapacityGrowth' \
    ./internal/switchmodel >/dev/null
# The node's run-at-a-time egress must match the per-flit reference loop,
# and a raw stream must transmit without allocating once warm.
go test -count=1 -run 'TestEmitTXMatchesReference|TestRawStreamTxZeroAlloc' ./internal/softstack >/dev/null

echo "== superblock equivalence gate =="
# The superblock dispatcher (decode-once/execute-many with fetch spans)
# must be bit-identical to per-instruction stepping: window-driver
# equivalence across budget sizes, a store from block N into block N+1's
# first instruction, random mid-run toggling, and the partial-idle
# keystone (one dense hart dispatching through blocks while its sibling
# parks in WFI, checkpointed mid-window and restored across fast-path
# setting and scheduler).
go test -count=1 -run 'TestSuperblockEquivalence|TestSuperblockSMCNextBlockPatch|TestSuperblockRandomToggle' ./internal/riscv >/dev/null
go test -count=1 -run 'TestPartialIdleSkipEquivalence' ./internal/soc >/dev/null

echo "== node-MIPS regression smoke =="
# The fast paths must actually pay for their complexity. The slow side of
# each pair is the pre-PR per-cycle path, so BENCH_fame.json carries its
# own baseline and the gate needs no cross-run BENCH_history.jsonl state:
# on an idle WFI rack the quiescent skip is orders of magnitude faster
# than per-cycle ticking (gate 5x, far below the measured ~1000x); an
# instruction-dense workload must beat per-cycle ticking by 3x with the
# full fast-path stack on (superblocks + spans measure 3.7-5.6x here, vs
# ~1.2x before block dispatch — the 3x floor encodes the issue's >=2.5x
# over that baseline with host-noise margin); and the superblock A-B
# (fast paths with only block dispatch off) must show dispatch itself
# still pays (gate 1.3x, measured 1.6-2.1x).
go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 2 \
    -node-nodes 4 -node-rounds 256 \
    -idle-min-speedup 5 -dense-min-speedup 3.0 -sb-min-speedup 1.3 \
    -out "$(mktemp)" >/dev/null

echo "== metrics overhead gate (2 nodes) =="
# Leaving the obs instruments attached must cost under 5% on a loaded
# 2-node rack, both schedulers. The estimator alternates base and
# instrumented regions on one warm cluster and takes the median of
# flank-normalised ratios, but a single invocation can still catch a
# host-frequency swing mid-sequence; a real regression fails every
# attempt, so up to three tries de-flakes the gate without loosening it.
OVERHEAD_OK=0
for attempt in 1 2 3; do
    if go run ./cmd/firesim bench -nodes 2 -rounds 2048 -reps 5 \
        -node-nodes 0 -max-overhead-pct 5 -out "$(mktemp)" >/dev/null; then
        OVERHEAD_OK=1
        break
    fi
    echo "   attempt $attempt exceeded the overhead gate, retrying"
done
[ "$OVERHEAD_OK" = 1 ] || { echo "FAIL: 2-node metrics overhead above 5% on 3 attempts" >&2; exit 1; }

echo "== parallel speedup gate (8 nodes) =="
# The worker-pool scheduler must never lose to the sequential one. On a
# multi-core host it should win outright (gate at 1.0); a single-core host
# cannot express real parallelism, so the gate there only rejects a
# regression back to the goroutine-per-endpoint era (0.73x at 8 nodes) while
# allowing measurement noise around parity.
BENCH_OUT="$(mktemp)"
go run ./cmd/firesim bench -nodes 8 -rounds 512 -reps 3 -out "$BENCH_OUT" >/dev/null
CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
MIN_SPEEDUP=1.0
if [ "$CORES" -lt 2 ]; then MIN_SPEEDUP=0.9; fi
SPEEDUP="$(sed -n 's/.*"parallel_speedup": \([0-9.]*\).*/\1/p' "$BENCH_OUT" | head -n1)"
echo "   parallel_speedup=$SPEEDUP (min $MIN_SPEEDUP on $CORES core(s))"
awk -v s="$SPEEDUP" -v min="$MIN_SPEEDUP" 'BEGIN { exit !(s >= min) }' || {
    echo "FAIL: 8-node parallel_speedup $SPEEDUP < $MIN_SPEEDUP" >&2
    exit 1
}

echo "== multi-core scaling gate (worker sweep) =="
# Core-count-aware gate on the worker sweep, evaluated inside the bench
# binary against effective (not requested) worker counts. A host with
# cores to spare must show real scaling: >=1.6x at 2 workers, >=2.5x at 4.
# A single-core host cannot express parallel speedup at all, so the gate
# there only requires the forced 2-worker run to hold near parity with
# the 1-worker baseline (>=0.8x), rejecting a regression to the
# channel-per-port era without pretending the host can scale. Retried like
# the overhead gate: a real regression fails every attempt.
if [ "$CORES" -ge 4 ]; then
    SWEEP_COUNTS="1,2,4"; SWEEP_GATE="2:1.6,4:2.5"
elif [ "$CORES" -ge 2 ]; then
    SWEEP_COUNTS="1,2"; SWEEP_GATE="2:1.6"
else
    SWEEP_COUNTS="1,2"; SWEEP_GATE="2:0.8"
fi
SWEEP_OK=0
for attempt in 1 2 3; do
    if go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 3 -node-nodes 0 \
        -worker-sweep "$SWEEP_COUNTS" -sweep-nodes 8,16 -sweep-rounds 512 \
        -sweep-min-speedup "$SWEEP_GATE" -out "$(mktemp)" >/dev/null; then
        SWEEP_OK=1
        break
    fi
    echo "   attempt $attempt missed the scaling gate ($SWEEP_GATE), retrying"
done
[ "$SWEEP_OK" = 1 ] || { echo "FAIL: worker-sweep scaling gate $SWEEP_GATE on $CORES core(s) after 3 attempts" >&2; exit 1; }

echo "== scale-curve gate (Fig. 9 shape) =="
# The sim-rate-vs-scale curve must keep its shape: growing the target from
# 64 nodes (8x8 tree) to 256 (4x8x8) multiplies the per-cycle work by ~4x
# plus two extra switch tiers, so the 256-node rate lands around 0.15-0.2
# of the 64-node rate here. The 0.08 floor only trips when the datapath
# cost grows super-linearly with scale (per-round allocation, egress-queue
# retention) — exactly the regressions the zero-alloc switch work removed.
# Retried like the other perf gates: a real regression fails every attempt.
SCALE_OK=0
for attempt in 1 2 3; do
    if go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -scale-nodes 8,64,256 -scale-rounds 256 -scale-reps 2 \
        -scale-min-frac 0.08 -out "$(mktemp)" >/dev/null; then
        SCALE_OK=1
        break
    fi
    echo "   attempt $attempt missed the scale-curve gate, retrying"
done
[ "$SCALE_OK" = 1 ] || { echo "FAIL: 256-node sim rate below 0.08 of the 64-node rate on 3 attempts" >&2; exit 1; }

if [ "${FIRESIM_CHECK_HEAVY:-0}" = 1 ]; then
    echo "== full-datacenter scale point (1024 nodes, FIRESIM_CHECK_HEAVY) =="
    # The paper's complete 4x8x32 datacenter topology as the tail of the
    # Fig. 9 curve. Opt-in: deploying and ticking ~1100 endpoints
    # multiplies the gate's wall time, so the default run stops at 256.
    # The same 0.08 shape floor applies between the two largest sizes
    # (1024 vs 256 here).
    timeout 600 go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -scale-nodes 8,64,256,1024 -scale-rounds 256 -scale-reps 2 \
        -scale-min-frac 0.08 -out "$(mktemp)" >/dev/null
fi

echo "== multiplexed-mode equivalence smoke (-race) =="
# The many-nodes-per-worker scheduling mode must stay bit-identical to the
# sequential scheduler under the race detector: stream equivalence across
# worker counts (with fault injection), mid-run checkpoint restore across
# modes, metrics parity, and panic containment inside a fused unit. The
# re-partition test holds both modes to the same bytes when every call
# runs under a different partition of measured tick costs.
go test -race -count=1 \
    -run 'TestMuxWorkerSweepEquivalence|TestMuxCheckpointMidRun|TestMuxMetricsEquivalence|TestMuxPanicContainment|TestMuxCrossModeRestore|TestRepartitionBetweenCallsEquivalence' \
    ./internal/fame >/dev/null

echo "== checkpoint determinism smoke =="
# Run, checkpoint, run on, restore, re-run: final state must be
# bit-identical, under both runners. Exits non-zero on divergence.
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 >/dev/null
go run ./cmd/firesim snap verify -nodes 4 -cycles 2048 -extra 2048 -parallel >/dev/null

echo "== distributed chaos smoke =="
# A 3-process, 8-node self-healing run: one shard SIGKILLed, another
# stalled long enough for the progress watchdog, healed from coordinated
# checkpoints, and -verify proves the result bit-identical to an
# undisturbed in-process run. The parallel pass adds a SIGSTOP victim
# (caught by lease expiry, not the watchdog) and a respawn budget. The
# hard timeout guards the gate itself against a supervision deadlock —
# the one bug class this subsystem exists to rule out.
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet
timeout 180 go run ./cmd/firesim run-dist -nodes 8 -procs 3 \
    -horizon 16384 -ckpt-every 2048 -parallel -respawns 2 \
    -chaos 'kill:shard1@4096,stop:shard0@6144,stall:shard2@10240+5000' \
    -verify -quiet

echo "== distributed chaos repeatability =="
# The chaos keystones deliver each kill/stop on the root's token window
# that reaches its trigger cycle, so every scheduled fault lands in its
# own checkpoint slice however fast the host runs. Five back-to-back
# invocations must all heal the expected number of failures.
timeout 300 go test -count=5 -run 'TestDistributedChaos' ./internal/manager >/dev/null

echo "== 256-node multi-level-cut chaos smoke =="
# The paper's 4x8x8 tree cut below the aggregation tier: 32 ToR units over
# 4 shard processes with the root and aggregation switches in the
# coordinator. One shard is SIGKILLed mid-run and its units re-packed onto
# the survivors, then a stall trips the progress watchdog; the healed
# 256-node run must still be bit-identical to the undisturbed in-process
# reference, component by component.
timeout 180 go run ./cmd/firesim run-dist -tree 4,8,8 -cut-level 2 -procs 4 \
    -horizon 16384 -ckpt-every 2048 \
    -chaos 'kill:shard1@4096,stall:shard2@10240+5000' \
    -verify -quiet

echo "== distributed token-plane gate =="
# The dist bench pass: an 8-node, 3-process loopback-TCP run per variant,
# each checked bit-identical against the same spec in-process before any
# number is reported. Gates the v3 wire codec's compression against the
# v2 fixed-width baseline at both ends of the operating range (idle
# windows must shrink >=3x, half-line-rate dense windows >=1.5x) and the
# dense variant's sim rate against the in-process run (>=0.01 of it —
# measured ~0.05; the floor trips if the exchange path regresses to
# multiple RTTs per window). The hard timeout guards against a bridge
# deadlock; retries de-flake the rate floor on a loaded host, a real
# regression fails every attempt.
DIST_OK=0
for attempt in 1 2 3; do
    if timeout 180 go run ./cmd/firesim bench -nodes 2 -rounds 64 -reps 1 -node-nodes 0 \
        -dist-nodes 8 -dist-procs 3 \
        -dist-idle-min-ratio 3 -dist-dense-min-ratio 1.5 -dist-min-frac 0.01 \
        -out "$(mktemp)" >/dev/null; then
        DIST_OK=1
        break
    fi
    echo "   attempt $attempt missed the dist token-plane gate, retrying"
done
[ "$DIST_OK" = 1 ] || { echo "FAIL: distributed token-plane gate on 3 attempts" >&2; exit 1; }

echo "== snapshot fuzz (short) =="
# A few seconds of coverage-guided fuzzing over the snapshot decoder: the
# Reader must never panic on malformed streams.
go test ./internal/snapshot -run '^$' -fuzz FuzzReader -fuzztime 5s >/dev/null

echo "== token link fuzz (short) =="
# The same for the token link's window framing and the token preamble:
# a corrupt peer stream must fail the link, never panic or hang it.
go test ./internal/transport -run '^$' -fuzz FuzzLinkRead -fuzztime 5s >/dev/null

echo "OK"
