#!/bin/sh
# ci.sh — the repo's one-command check: formatting, build everything
# (the examples explicitly, so a broken example can never hide behind a
# cached ./... build), vet, and run the full test suite (including the
# obs concurrency tests) under the race detector.
set -eux

# Every QoS budget in the tree (jmsbench experiment gates, jmsanalyze
# -contract, the explorer's QoS oracle) is widened uniformly by
# JMSQOS_SLACK, read via qos.SlackFromEnv. This is the one place CI
# sets it: 2x absorbs a loaded shared runner without masking
# regressions in kind. Override per-invocation when hunting a flake.
export JMSQOS_SLACK=${JMSQOS_SLACK:-2}

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go build ./...
go build ./examples/...
go vet ./...
go test -race ./...

# The repository benchmark (jmsperf/) is a module of its own that
# compiles against internal/store, internal/broker and friends, so the
# root ./... above never builds or tests it.
(cd jmsperf && GOWORK=off go test ./...)

# Bounded randomized conformance exploration: mutate seeds for 30s and
# check every scenario's verdict against the oracle (clean stacks pass,
# known-faulty wrappers are flagged by the matching property). The
# checked-in corpus under internal/explore/testdata/fuzz already runs in
# the suite above; this stage searches beyond it. Set JMSFUZZ_TIME to
# widen the budget, or JMSFUZZ_TIME=0 to skip the stage.
fuzztime=${JMSFUZZ_TIME:-30s}
if [ "$fuzztime" != "0" ]; then
	go test -fuzz=FuzzConformance -fuzztime="$fuzztime" ./internal/explore
fi

# Pipelining smoke: the credit-windowed async send path must be
# strictly faster than blocking round trips against the same wire
# server (best-of-three each, so a scheduler hiccup cannot flip the
# comparison). Guards the whole pipelined path: frame coalescing,
# window credits, completion batching. Set JMSPIPE=0 to skip.
pipesmoke=${JMSPIPE:-1}
if [ "$pipesmoke" != "0" ]; then
	JMSPIPE_SMOKE=1 go test -run TestPipelinedFasterThanBlocking -count=1 ./internal/wire
fi

# QoS conformance smoke: the quantitative side of the gate. Each
# experiment declares a contract (delay percentiles, throughput floors,
# failover MTTR/unavailability budgets); jmsbench embeds the verdicts
# in its report and exits non-zero on any violation. A short saturation
# point checks the capacity floors, a failover drill checks the
# recovery budgets through a real promotion, and the R=2 quorum drill
# (preferred replication link partitioned mid-run, then the primary
# killed for good) checks that the witness majority promotes within
# budget with zero safety violations. The chaos, failover and quorum
# conformance tests themselves run in the race-enabled suite above.
# Set JMSQOS=0 to skip.
qossmoke=${JMSQOS:-1}
if [ "$qossmoke" != "0" ]; then
	go run ./cmd/jmsbench -experiment saturation -scale 0.2 -json-dir ""
	go run ./cmd/jmsbench -experiment failover -scale 0.5 -json-dir ""
	go run ./cmd/jmsbench -experiment quorum -scale 0.5 -json-dir ""
fi

# Trace smoke: run a short traced saturation sweep exporting spans to
# JSONL, then validate the export offline — every line must parse as a
# span, and at least one trace must link three or more causally related
# hops (client RPC → server recv → broker enqueue), proving end-to-end
# trace propagation across the wire. Set JMSTRACE=0 to skip the stage.
tracesmoke=${JMSTRACE:-1}
if [ "$tracesmoke" != "0" ]; then
	tracedir=$(mktemp -d)
	go run ./cmd/jmsbench -experiment saturation -scale 0.05 -trace-out "$tracedir/spans.jsonl" -json-dir ""
	go run ./cmd/jmsanalyze -spans "$tracedir/spans.jsonl" -min-hops 3
	rm -rf "$tracedir"
fi

# Opt-in hot-path microbenchmarks (broker send/ack, WAL group-commit
# append, wire round trip): set JMSBENCH_TIME (a -benchtime value, e.g.
# 1s or 2000x) to run them, so a perf regression is one command away.
# Off by default to keep ci fast.
benchtime=${JMSBENCH_TIME:-0}
if [ "$benchtime" != "0" ]; then
	go test -run '^$' -bench 'SendAck|WALAppend|SendReceive|SendPipelined' -benchtime="$benchtime" .
fi
