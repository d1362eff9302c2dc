#!/usr/bin/env bash
# Socket-transport smoke: crdt-sim processes replicating over real unix and
# tcp sockets. Every leg checks that the processes agree byte-for-byte on
# each canonical state and that every process exits 0 — each binary audits
# its own ledgers (per-object frame counters against the per-peer wire
# totals, the scheduler ledger, the receive pipeline's ledger) and exits
# non-zero on an imbalance. `make sockets` runs this after the in-repo socket
# tests. Run it from the repository root.
set -euo pipefail

D=$(mktemp -d)
trap 'rm -rf "$D"' EXIT
go build -o "$D/crdt-sim" ./cmd/crdt-sim

pids=()
# start NAME ARGS... runs one crdt-sim process in the background, logging to
# $D/NAME.log.
start() {
	local name=$1
	shift
	"$D/crdt-sim" "$@" >"$D/$name.log" &
	pids+=($!)
}
# finish LOG... waits for every started process, prints the logs, and fails
# if any process exited non-zero.
finish() {
	local failed=0
	for p in "${pids[@]}"; do
		wait "$p" || failed=1
	done
	pids=()
	rm -f "$D"/*.sock
	for l in "$@"; do cat "$D/$l.log"; done
	[ "$failed" = 0 ] || { echo "a crdt-sim process exited non-zero"; exit 1; }
}
# same_state WHAT LOG... requires one identical single-object canonical state.
same_state() {
	local what=$1 want="" got
	shift
	for l in "$@"; do
		got=$(awk '/canonical state/{print $NF}' "$D/$l.log")
		[ -n "$got" ] && { [ -z "$want" ] || [ "$got" = "$want" ]; } || { echo "canonical states diverged $what"; exit 1; }
		want=$got
	done
}
# same_objects WHAT LOG... requires identical canonical states for objects 1-4.
same_objects() {
	local what=$1 want got
	shift
	for o in 1 2 3 4; do
		want=""
		for l in "$@"; do
			got=$(awk -v o="$o" '$3=="obj" && $4==o && /canonical state/{print $NF}' "$D/$l.log")
			[ -n "$got" ] && { [ -z "$want" ] || [ "$got" = "$want" ]; } || { echo "object $o diverged $what"; exit 1; }
			want=$got
		done
	done
}
# require PATTERN LOG MESSAGE fails with MESSAGE unless LOG matches PATTERN.
require() {
	grep -Eq "$1" "$D/$2.log" || { echo "$3"; exit 1; }
}

echo "== two-process unix demo"
U2="$D/a.sock,$D/b.sock"
start p0 -transport unix -addrs "$U2" -node 0 -algo rga -ops 20 -seed 7
sleep 0.2
start p1 -transport unix -addrs "$U2" -node 1 -algo rga -ops 20 -seed 7
finish p0 p1
same_state "between unix processes" p0 p1

echo "== two-process tcp demo"
T2="127.0.0.1:19701,127.0.0.1:19702"
start p0 -transport tcp -addrs "$T2" -node 0 -algo rga -ops 20 -seed 7
sleep 0.2
start p1 -transport tcp -addrs "$T2" -node 1 -algo rga -ops 20 -seed 7
finish p0 p1
same_state "between tcp processes" p0 p1

echo "== three-process unix mesh, batching on one leg"
U3="$D/a.sock,$D/b.sock,$D/c.sock"
start p0 -transport unix -addrs "$U3" -node 0 -algo aw-set -ops 18 -seed 11 -batch-frames 8 -flush-every 5ms
sleep 0.2
start p1 -transport unix -addrs "$U3" -node 1 -algo aw-set -ops 18 -seed 11
sleep 0.2
start p2 -transport unix -addrs "$U3" -node 2 -algo aw-set -ops 18 -seed 11
finish p0 p1 p2
same_state "across the batched 3-process mesh" p0 p1 p2

echo "== late-join snapshot catch-up with log compaction"
LATE="-transport unix -addrs $U3 -algo counter -ops 18 -seed 7"
start p0 $LATE -node 0 -late-peers 2 -snapshot-every 4
start p1 $LATE -node 1 -late-peers 2 -snapshot-every 4 -batch-frames 6 -flush-every 3ms
sleep 2
start p2 $LATE -node 2 -catch-up
finish p0 p1 p2
same_state "across the late-join mesh" p0 p1 p2
require 'installed=true covered=[1-9]' p2 "joiner was not served a snapshot checkpoint"
for n in 0 1; do
	require 'checkpoints=[1-9]' "p$n" "early node $n never checkpointed"
	require 'truncated=[1-9][0-9]*' "p$n" "early node $n never compacted its broadcast log"
done

echo "== multi-object tcp mesh, mixed algorithms, late joiner"
# Four objects (counter, g-set, lww-register, rga) multiplexed over one tcp
# socket pair per process pair: the early nodes checkpoint per object, and the
# joiner catches up on every object over the shared connection.
MULTI="-transport tcp -addrs 127.0.0.1:19711,127.0.0.1:19712,127.0.0.1:19713 -objects 4 -mixed -ops 12 -seed 7"
start p0 $MULTI -node 0 -late-peers 2 -snapshot-every 3 -batch-frames 4 -flush-every 3ms
start p1 $MULTI -node 1 -late-peers 2 -snapshot-every 3
sleep 2
start p2 $MULTI -node 2 -catch-up
finish p0 p1 p2
same_objects "across the multi-object tcp mesh" p0 p1 p2
p0=$(awk '/product\(/{print $NF}' "$D/p0.log")
p2=$(awk '/product\(/{print $NF}' "$D/p2.log")
[ -n "$p0" ] && [ "$p0" = "$p2" ] || { echo "reassembled product states diverged"; exit 1; }
[ "$(grep -c 'installed=true' "$D/p2.log")" = 4 ] || { echo "joiner did not install a snapshot for every object"; exit 1; }
require 'installed=true covered=[1-9]' p2 "no joiner snapshot covered any broadcast frames"
# High-traffic objects compact on both early nodes; quiet objects (few ops at
# this scale) legitimately may not, so one compacted object per early node.
for n in 0 1; do
	require 'obj [0-9]+ snapshots: checkpoints=[1-9]' "p$n" "early node $n never checkpointed any object"
	require 'truncated=[1-9][0-9]*' "p$n" "early node $n never compacted any object log"
	require 'per-object frames' "p$n" "node $n printed no per-object frame breakdown"
	require 'over 2 connection\(s\)' "p$n" "node $n did not share one socket pair per process pair"
done

echo "== multi-object unix mesh, receive pipeline on two shards"
# Frames apply concurrently across objects, never within one, so every object
# still converges byte-identically, and each process prints its receive
# ledger (received == dispatched == applied, audited by the binary).
PIPED="-transport unix -addrs $U3 -objects 4 -mixed -ops 12 -seed 7 -batch-frames 4 -flush-every 3ms -recv-workers 2"
start p0 $PIPED -node 0
sleep 0.2
start p1 $PIPED -node 1
sleep 0.2
start p2 $PIPED -node 2
finish p0 p1 p2
same_objects "across the piped unix mesh" p0 p1 p2
for n in 0 1 2; do
	require 'over 2 connection\(s\)' "p$n" "node $n did not share one socket pair per process pair"
	require 'receive pipeline workers=2' "p$n" "node $n printed no receive-pipeline ledger"
done

echo "== weighted scheduler with a per-object delay override"
# Object 1 gets 8x object 2's drain share and object 2 its own 5ms flush
# deadline. Scheduling reorders sends across objects only.
SCHED="-transport unix -addrs $U3 -objects 4 -mixed -ops 12 -seed 7 -batch-frames 64 -weights 1:8,2:1 -obj-max-delay 2:5ms"
start p0 $SCHED -node 0
sleep 0.2
start p1 $SCHED -node 1
sleep 0.2
start p2 $SCHED -node 2
finish p0 p1 p2
same_objects "under the weighted scheduler" p0 p1 p2
for n in 0 1 2; do
	require 'scheduler queued/drained' "p$n" "node $n printed no scheduler ledger"
done

echo "socket smoke: all legs passed"
