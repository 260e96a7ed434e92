#!/usr/bin/env sh
# Repo-wide static checks plus race-checked tests. gofmt is enforced (any
# unformatted file fails the build), then vet, then the full test tree
# under the race detector.
set -eu
cd "$(dirname "$0")/.."

fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go test -race ./...
# Dataplane allocation budgets are pinned by regression tests
# (TestWriteFrameAllocs, TestReadFrameBufAllocs, TestReadFrameEmptyAllocs,
# TestUnmarshalSharedAllocs, TestMarshalAllocs); the race run above covers
# them, and this smoke run proves every dataplane benchmark still compiles
# and completes one iteration.
go test -run=NONE -bench=. -benchtime=1x ./internal/wire ./internal/tuple ./internal/runtime
# The round-trip allocation budgets — < 1 alloc/tuple across both
# directions for a 64-tuple batch, and at most 4 for a one-tuple Submit —
# only hold still at one core, and skip under -race, so nothing above
# runs them; pin them here at GOMAXPROCS=1.
GOMAXPROCS=1 go test -count=1 -run 'TestBatchRoundTripAllocs|TestSubmitRoundTripAllocs' ./internal/runtime/
# Many-worker throughput smoke under the race detector, scaled down (64
# workers, 4 submitters, 200 tuples) so the sharded hot state — in-flight
# shards, RCU routing snapshot, segmented journal — is exercised under
# real concurrency on every check run without benchmark-scale cost.
SWING_BENCH_WORKERS=64 SWING_BENCH_SUBMITTERS=4 \
    go test -race -run=NONE -bench=ManyWorkerThroughput -benchtime=200x ./internal/runtime
# Same smoke with batched submitters: SubmitBatch packing, per-shard
# group tracking, group journal commits, and the worker's chained batch
# decode, all under the race detector.
SWING_BENCH_WORKERS=64 SWING_BENCH_SUBMITTERS=4 SWING_BENCH_SUBMIT_BATCH=16 \
    go test -race -run=NONE -bench=ManyWorkerThroughput -benchtime=200x ./internal/runtime
# The live runtime's fault-tolerance and liveness paths (retransmit,
# reconnect, heartbeat eviction, breakers, fault injection) are
# timing-sensitive; run them a second time under the race detector.
go test -race -count=1 ./internal/runtime/... ./internal/transport/...
# Shaped-transport + observability smoke: frame-granular link shaping,
# scenario-pack parsing, and the /statusz endpoint's ledger invariant,
# re-run explicitly under the race detector.
go test -race -count=1 -run 'TestShaped|TestStatusEndpoint|TestParseScenario' \
    ./internal/transport/ ./internal/runtime/
# Failover smoke under the race detector: hot-standby replication,
# epoch-fenced promotion with eight re-adopting workers, both halves of
# the zombie fence, and the reconnect-budget policy.
go test -race -count=1 \
    -run 'TestStandbyReplicationStream|TestStandbyFailoverPromotion|TestZombiePrimaryFenced|TestWorkerReconnectBudget' \
    ./internal/runtime/
# Failure-containment smoke under the race detector: operator panic
# isolation, the per-tuple deadline watchdog, poison quarantine vs
# breaker semantics, hedged retransmits, shadow probes (re-selection of
# a sped-up worker, first result wins), and the seeded chaos nemesis
# (deterministic schedule + a short composed run with invariant polling).
go test -race -count=1 \
    -run 'TestOperatorPanicContained|TestOpDeadlineAbandonsHungTuple|TestPoisonQuarantineSparesHealthyBreakers|TestSickWorkerStillTripsBreaker|TestHedgedRetransmitStragglers|TestShadowProbeReselectsSpedUpWorker|TestShadowCopyFirstResultWins' \
    ./internal/runtime/
go test -race -count=1 -run 'TestScheduleDeterministic|TestNemesisSmoke' ./internal/chaos/
# Batched-dataplane smoke under the race detector: downstream frame
# coalescing with exact tuple accounting, the ledger invariant under
# concurrent SubmitBatch, whole-batch loss recovery through the
# hedge/retransmit path, and per-tuple drop semantics inside a batch.
go test -race -count=1 \
    -run 'TestBatchedDispatchReducesDownstreamFrames|TestLedgerConsistentUnderConcurrentSubmitBatch|TestSubmitBatchShapedLossRecovery|TestSubmitBatchProcessorDrops|TestShapedBatch|TestFaultyTupleCounters' \
    ./internal/runtime/ ./internal/transport/
# Batched result-path smoke under the race detector: one journal group
# commit per touched segment per result frame, ack-batch replay, results
# reaching the sink only after their ack records are in the journal and
# (with a standby attached) in its mirror, independent bytes fields for
# the results of one frame, the hostile tuple-batch count guard, and the
# batched sink pass.
go test -race -count=1 \
    -run 'TestResultFrame|TestHostileTupleBatchCount|TestSegmentedJournalRecoveryMergesByEpochSeq|TestReorderCapFloor' \
    ./internal/runtime/
go test -race -count=1 -run 'TestSharedBytesAppendDoesNotClobberSibling|TestDecodeSharedIntoBlock|TestInternNameCapped' \
    ./internal/tuple/
# Checkpoint-cycle smoke under the race detector, ten times: a 5 ms
# checkpoint period under four SubmitBatch submitters with a standby
# attaching mid-run (the cut holds the journal locks only for the
# switch; encode, save and retire run beside live appends), plus the
# crash-point table and the failed-save recovery.
go test -race -count=10 -run 'TestCheckpointCycleConcurrencySmoke' ./internal/runtime/
go test -race -count=1 -run 'TestCheckpointCycleCrashPoints|TestFailedCheckpointSavesLoseNothing' \
    ./internal/runtime/
# Live /statusz curl smoke: boot a real swingd master with a status
# endpoint and a shaped transport, fetch the JSON from the URL the
# process announces, and check the ledger reports balanced. Falls back
# to wget when curl is absent.
smoketmp="$(mktemp -d)"
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/swingd" ./cmd/swingd
"$smoketmp/swingd" -role master -app facerec -listen 127.0.0.1:0 \
    -status-addr 127.0.0.1:0 -shape wifi-degrade:300ms \
    -fps 30 -duration 3s >"$smoketmp/swingd.log" 2>&1 &
smokepid=$!
url=""
i=0
while [ "$i" -lt 50 ]; do
    url="$(sed -n 's#^status endpoint on \(http://[^ ]*\)$#\1#p' "$smoketmp/swingd.log")"
    [ -n "$url" ] && break
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "swingd never announced its status endpoint" >&2
    cat "$smoketmp/swingd.log" >&2
    exit 1
fi
if command -v curl >/dev/null 2>&1; then
    curl -fsS "$url?format=json" >"$smoketmp/status.json"
else
    wget -qO "$smoketmp/status.json" "$url?format=json"
fi
grep -q '"balanced": true' "$smoketmp/status.json"
wait "$smokepid"
grep -q '^shaping report: ' "$smoketmp/swingd.log"
echo "statusz smoke: ok ($url)"
# Short fuzz smoke over the on-disk/on-wire codecs: the frame codec that
# fronts every connection, the journal record codec that recovery replays
# from whatever a crash left behind, and the replication payload codecs a
# standby decodes from a live (possibly hostile) stream. The checked-in
# seed corpus always runs; FUZZ_SECONDS (default 5) of coverage-guided
# input rides on top. One -fuzz target per invocation is a `go test`
# restriction.
FUZZ_SECONDS="${FUZZ_SECONDS:-5}"
go test -run '^$' -fuzz 'FuzzFrameCodec' -fuzztime "${FUZZ_SECONDS}s" ./internal/wire/
go test -run '^$' -fuzz 'FuzzRepCodec' -fuzztime "${FUZZ_SECONDS}s" ./internal/wire/
go test -run '^$' -fuzz 'FuzzJournalRecord' -fuzztime "${FUZZ_SECONDS}s" ./internal/runtime/
