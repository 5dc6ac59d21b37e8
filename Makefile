# Single source of truth for the commands CI and humans run.

GO ?= go

.PHONY: build test race vet fmt-check bench bench-smoke bench-check pdes litmus farm farm-grow synczoo chaos kv results cover serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark is a module of its own (bench/go.mod), which ./... does not
# reach, so it is vetted separately.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Formatting gate: fails when any Go file is not gofmt-clean. `gofmt -l .`
# lists the offenders and `gofmt -w .` fixes them.
fmt-check:
	test -z "$$(gofmt -l .)"

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One-iteration benchmark smoke: proves the bench paths (simulator kernel,
# the Figure 4-7 sweeps, the event kernel's own loop and its queue at the
# figure sweep's shape, the program/event-loop handoff, exploration engine,
# the reliable transport under faults, the litmus seed sweep and the KV
# service on pooled machines under chaos) build and run; used by CI, where
# timing numbers would be noise anyway.
bench-smoke:
	$(GO) test '-bench=SimulatorThroughput|Enumerate' -benchtime=1x -run=^$$ .
	$(GO) test -bench='Figure[4-7]$$' -benchtime=1x -run=^$$ .
	$(GO) test '-bench=EngineScheduleRun|EngineQueue' -benchtime=1x -run=^$$ ./internal/sim/
	$(GO) test -bench=ProcPark -benchtime=1x -run=^$$ ./internal/core/
	$(GO) test -bench=TransportChaos -benchtime=1x -run=^$$ ./internal/fabric/
	$(GO) test -bench=Sweep -benchtime=1x -run=^$$ ./internal/litmus/
	$(GO) test '-bench=^BenchmarkRun$$' -benchtime=1x -run=^$$ ./internal/kvapp/

# Deterministic-counter gate: the whole-system benchmark's own tests
# (bench/, a separate module) smoke every workload and compare the
# host-independent counters and litmus allowed sets with the pinned ones
# in bench/testdata/counters.json and bench/allowed.json (~30 s). The
# timed benchmark itself is bash bench/run.sh (see bench/README.md).
bench-check:
	$(GO) -C bench test ./...

# PDES determinism gate: the lane engine's unit tests, the window-merge
# port-arbitration parity and replay-order suite, and every SimWorkers
# equality property (engine, network, workload, harness, daemon, the KV
# service under chaos, and the spin-wait against the loop it replaces, on
# two lanes among its cases) under the race detector. The bench line runs the
# ideal and the contended stencil (the PDESStencil pattern substring-matches
# PDESStencilContended) and the KV service on the serial engine (workers=0)
# and on one lane per node (workers=1).
pdes:
	$(GO) test -race ./internal/sim/
	$(GO) test -race -run 'PDES|Parallel|Stencil|SimWorkers|LaneArbitration|Arbitrate|SpinMatchesLoop' \
		./internal/core/ ./internal/network/ ./internal/workload/ ./internal/harness/ ./internal/server/ \
		./internal/kvapp/
	$(GO) test '-bench=PDES(Stencil|KV)/workers=(0|1)$$' -benchtime=1x -run=^$$ .

# Synchronization-zoo litmus: the mutual-exclusion and barrier-separation
# witnesses for every zoo algorithm, swept across jitter seeds under the
# race detector, then across fault seeds on a misbehaving interconnect.
synczoo:
	$(GO) test -race ./internal/synczoo/
	$(GO) run ./cmd/ssmp sync litmus -seeds 8
	$(GO) run ./cmd/ssmp sync litmus -seeds 8 -faults

# Litmus cross-validation: the embedded corpus under the race detector
# (with the replays on pooled, reset machines checked against fresh ones,
# the RunOps replays against coroutine programs, and violation
# explanations replayed under their fault planes), bounded
# fuzzes of the three decoders of outside input (the litmus test JSON,
# the trace text format and the daemon's job specs), then a bounded fuzz
# of random programs against the axiomatic model.
litmus:
	$(GO) test -race -run 'TestCorpus|TestFuzz|TestShrink|Reuse|Explain|RunOps' ./internal/litmus/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/litmus/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime 10s ./internal/server/
	$(GO) run ./cmd/ssmp litmus fuzz -budget 30s

# Farm-corpus gate: the committed generated corpus (300+ canonical tests,
# every §2 axiom family covered) replayed end to end under the race
# detector — canonical-form fixpoint, recomputed coverage vectors, pinned
# allowed sets, simulator cross-validation, and engine-configuration
# agreement (POR/symmetry) on every test.
farm:
	$(GO) test -race -run 'TestGeneratedCorpusReplay|TestDifferentialGenerated|TestFarm|TestCanonicalize' \
		./internal/litmus/

# Regenerate the committed farm corpus from scratch (deterministic: the
# output is a pure function of the campaign parameters, so this is a
# no-op unless the generator, model, or canonicalization changed).
farm-grow:
	$(GO) run ./cmd/ssmp litmus farm -n 7000 -rng 1 -report \
		-out internal/litmus/testdata/generated

# Chaos soak: fault-plane and reliable-transport unit tests under the race
# detector, then the litmus corpus swept across fault seeds — each run's
# fabric drops, duplicates and delays messages (seeded, deterministic) and
# every observed outcome must still be axiomatically allowed.
chaos:
	$(GO) test -race -run 'TestFault|TestTransport|TestChaos' \
		./internal/network/ ./internal/fabric/ ./internal/core/ ./internal/litmus/ ./internal/server/
	$(GO) run ./cmd/ssmp litmus run -faults -seeds 32

# Key-value service gate: the kvapp unit tests and sequential-consistency
# oracle under the race detector (including the chaos soak in -short form
# and the lane-safety bit-identical check), the harness/server/CLI surface,
# then a short chaos soak through `ssmp kv` across both protocols.
kv:
	$(GO) test -race -short ./internal/kvapp/
	$(GO) test -race -run 'KV|MetricsLatency' ./internal/harness/ ./internal/server/
	$(GO) run ./cmd/ssmp kv soak -seeds 4
	$(GO) test '-bench=KVStore/lock=(cbl|mcs)/procs=4$$' -benchtime=1x -run=^$$ .

# Regenerate the committed evaluation in results/: the Markdown report and
# the Figure 4-7 tables, CSVs and SVGs over the full sweep. Every run is
# deterministic, so CI fails when the committed files differ from what the
# code prints (git diff --exit-code -- results/).
results:
	$(GO) run ./cmd/ssmp report -procs 2,4,8,16,32,64 > results/report.md
	$(GO) run ./cmd/ssmp figures -procs 2,4,8,16,32,64 -csv results/ -svg results/ -logy -util > results/figures.txt

# Per-package statement coverage, with a hard floor on the checker
# packages the litmus farm rests on (override: COVER_FLOOR=90 make cover).
COVER_FLOOR ?= 85
cover:
	@out=$$($(GO) test -cover ./...) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(COVER_FLOOR) ' \
		$$2 ~ /^ssmp\/internal\/(bccheck|litmus)$$/ { \
			for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { \
				p = $$i; sub(/%/, "", p); \
				if (p + 0 < floor) { printf "coverage gate: %s at %s%% is below the %s%% floor\n", $$2, p, floor; fail = 1 } \
			} \
		} \
		END { exit fail }'

serve: build
	$(GO) run ./cmd/ssmpd -addr :8080

clean:
	$(GO) clean ./...
