GO ?= go

.PHONY: ci vet build test race fuzz bench-smoke trace-smoke trace-golden figures-smoke snap-smoke scale-smoke controller-smoke server-smoke recover-smoke gateway-smoke bench-scale bench-gate bench-server bench-controller baseline bench-warmstart clean

## ci: everything the driver checks — vet, build, race-enabled tests, a
## short fuzz pass over the wire codecs, a one-shot large-scale benchmark
## smoke run, the telemetry pipeline smoke test, the figure-runner golden
## (cold and warm-started), the snapshot round-trip smoke test, a short 10k-node run on the sparse sharded engine, the
## controller-layer smoke (four-way chaos with recovery asserted), the
## simulation-service end-to-end smoke, the crash-recovery smoke, and the
## gateway fault-tolerance smoke.
ci: vet build race fuzz bench-smoke trace-smoke figures-smoke snap-smoke scale-smoke controller-smoke server-smoke recover-smoke gateway-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: brief native-fuzzing passes over the frame and routing-payload
## codecs (go test allows one -fuzz pattern per package invocation).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/mac
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalJoinIn -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalJoinedCallback -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzScanJSONL -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzGenerate -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/server

## bench-smoke: run the heaviest benchmark once to catch bit-rot without
## paying for a full measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkFig12LargeScale -benchtime=1x .

## trace-smoke: run a short Figure 4 slice with packet-lifecycle tracing
## on, replay the trace through digs-trace, and diff the report against the
## checked-in golden — catches schema drift, nondeterminism and broken hook
## points in one pass.
TRACE_SMOKE_JSONL := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-trace-smoke.jsonl
trace-smoke:
	$(GO) run ./cmd/digs-bench -fig 4 -smoke -seed 42 -trace $(TRACE_SMOKE_JSONL) >/dev/null
	$(GO) run ./cmd/digs-trace -per-flow $(TRACE_SMOKE_JSONL) | diff -u testdata/trace_smoke_golden.txt -
	@echo trace-smoke: OK

## trace-golden: regenerate the trace-smoke golden report after an
## intentional schema or instrumentation change.
trace-golden:
	$(GO) run ./cmd/digs-bench -fig 4 -smoke -seed 42 -trace $(TRACE_SMOKE_JSONL) >/dev/null
	$(GO) run ./cmd/digs-trace -per-flow $(TRACE_SMOKE_JSONL) > testdata/trace_smoke_golden.txt

## figures-smoke: run every paper-figure runner at interactive scale and
## diff the printed series against the checked-in golden — once cold
## (populating a snapshot cache) and once warm-started from that cache, so
## the formation cache of Figures 9-11 is held to the same bytes.
FIGURES_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-figures-smoke
figures-smoke:
	rm -rf $(FIGURES_SMOKE_DIR) && mkdir -p $(FIGURES_SMOKE_DIR)
	$(GO) build -o $(FIGURES_SMOKE_DIR)/digs-bench ./cmd/digs-bench
	$(FIGURES_SMOKE_DIR)/digs-bench -fig all -smoke -seed 1 -snap-cache $(FIGURES_SMOKE_DIR)/cache \
		| diff -u testdata/figures_smoke_golden.txt -
	$(FIGURES_SMOKE_DIR)/digs-bench -fig all -smoke -seed 1 -snap-cache $(FIGURES_SMOKE_DIR)/cache \
		| diff -u testdata/figures_smoke_golden.txt -
	@echo figures-smoke: OK

## snap-smoke: prove checkpoint/restore bit-identity across processes for
## every registered stack — snapshot a half-formed network, resume it for
## 2000 more slots, and byte-compare the result against a straight-through
## run that never stopped (labels must match: the label is part of the
## snapshot).
SNAP_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-snap-smoke
SNAP_SMOKE_STACKS := digs orchestra whart sdn adaptive
snap-smoke:
	rm -rf $(SNAP_SMOKE_DIR) && mkdir -p $(SNAP_SMOKE_DIR)
	$(GO) build -o $(SNAP_SMOKE_DIR)/digs-snap ./cmd/digs-snap
	for p in $(SNAP_SMOKE_STACKS); do \
		$(SNAP_SMOKE_DIR)/digs-snap take -topology half-testbed-a -protocol $$p -seed 9 \
			-slots 3000 -o $(SNAP_SMOKE_DIR)/$$p-mid.snap >/dev/null && \
		$(SNAP_SMOKE_DIR)/digs-snap resume -snap $(SNAP_SMOKE_DIR)/$$p-mid.snap -slots 2000 \
			-label golden -o $(SNAP_SMOKE_DIR)/$$p-resumed.snap >/dev/null && \
		$(SNAP_SMOKE_DIR)/digs-snap take -topology half-testbed-a -protocol $$p -seed 9 \
			-slots 5000 -label golden -o $(SNAP_SMOKE_DIR)/$$p-straight.snap >/dev/null && \
		cmp $(SNAP_SMOKE_DIR)/$$p-resumed.snap $(SNAP_SMOKE_DIR)/$$p-straight.snap && \
		echo "snap-smoke: $$p OK" || exit 1; \
	done
	@echo snap-smoke: OK

## scale-smoke: spin up a procedurally generated 10k-node deployment on
## the sparse sharded engine and step it briefly under DiGS and Orchestra
## — catches engine bit-rot at a scale the dense matrix cannot represent.
## WirelessHART is excluded by design: its centralised manager computes
## the whole schedule up front, which is exactly the scaling limit the
## paper's distributed approach removes.
scale-smoke:
	$(GO) run ./cmd/digs-bench -scale-smoke
	@echo scale-smoke: OK

## controller-smoke: the pluggable controller layer end to end —
## race-enabled controller and registry tests, then a mini four-way
## chaos run (digs / orchestra / whart / sdn on the fig8 plan) that
## fails unless every fault reconverges — including the centralized sdn
## stack, whose recovery must come from the controller's in-band
## recollect + redistribute cycle, not local repair.
controller-smoke:
	$(GO) test -race ./internal/controller/
	$(GO) test -race -run 'TestStackRegistry|TestSpecHashGolden|TestControllerScaleShardBitIdentity' ./internal/scenario/
	$(GO) run ./cmd/digs-chaos -plan fig8 -topology testbed-a -duration 30s -require-recovery >/dev/null
	@echo controller-smoke: OK

## bench-controller: regenerate BENCH_controller.json — the controller
## stacks (sdn, adaptive) on the dense testbed and the sparse sharded
## engine: join counts after the formation window and steady-state
## slots/s.
bench-controller:
	$(GO) run ./cmd/digs-bench -bench-controller BENCH_controller.json

## bench-scale: regenerate BENCH_scale.json — the nodes x protocol x
## shards throughput matrix, including the dense-engine twin that anchors
## the sparse engine's speedup claim.
bench-scale:
	$(GO) run ./cmd/digs-bench -bench-scale BENCH_scale.json

## server-smoke: the simulation service end to end — self-host a
## digs-server, submit a small generated plant over HTTP, follow its SSE
## telemetry stream to completion, verify the result hash and the
## content-addressed store round-trip, demand a cache hit on
## resubmission, and byte-compare the server's result against a direct
## in-process run of the same spec.
server-smoke:
	$(GO) run ./cmd/digs-load -smoke

## recover-smoke: the crash-safety contract end to end — race-enabled
## journal/retry/degraded-mode tests, then the real-process harness:
## build digs-server, SIGKILL it mid-burst, restart on the same data
## directory, and fail unless every acknowledged job reaches done with
## verified result bytes (zero accepted jobs lost).
RECOVER_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-recover-smoke
recover-smoke:
	$(GO) test -race -run 'Journal|Replay|Retry|Panic|Degraded|Recover|Quarantine' ./internal/server
	rm -rf $(RECOVER_DIR) && mkdir -p $(RECOVER_DIR)
	$(GO) build -o $(RECOVER_DIR)/digs-server ./cmd/digs-server
	$(GO) run ./cmd/digs-load -crash -server-bin $(RECOVER_DIR)/digs-server
	@echo recover-smoke: OK

## gateway-smoke: the fault-tolerant front tier end to end —
## race-enabled gateway and fault-proxy tests (routing, breakers,
## replication, read-repair, SSE failover reattach), the in-process
## partition harness (blackhole one backend mid-burst, demand eviction
## within the probe budget and zero surfaced errors), and the real
## 1-gateway/3-backend harness that SIGKILLs the busiest backend
## mid-burst and fails unless every acknowledged job reaches done with
## verified result bytes.
GATEWAY_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-gateway-smoke
gateway-smoke:
	$(GO) test -race ./internal/gateway/...
	$(GO) run ./cmd/digs-load -gateway -partition
	rm -rf $(GATEWAY_DIR) && mkdir -p $(GATEWAY_DIR)
	$(GO) build -o $(GATEWAY_DIR)/digs-server ./cmd/digs-server
	$(GO) build -o $(GATEWAY_DIR)/digs-gateway ./cmd/digs-gateway
	$(GO) run ./cmd/digs-load -gateway -crash \
		-server-bin $(GATEWAY_DIR)/digs-server -gateway-bin $(GATEWAY_DIR)/digs-gateway
	@echo gateway-smoke: OK

## bench-server: regenerate BENCH_server.json — the simulation service
## under a mixed cold / warm-start / duplicate workload: sustained req/s,
## per-class submit-to-result p50/p99, warm-hit and cache-hit rates.
bench-server:
	$(GO) run ./cmd/digs-load -o BENCH_server.json

## bench-gate: re-time the gated BENCH_scale.json cells (fail when any
## regresses more than 15% in slots/s) and re-run the server load bench
## against BENCH_server.json (fail when req/s drops or a class p99 grows
## past tolerance). Kept out of `ci`: wall-clock gates belong on
## dedicated runners, not shared machines.
bench-gate:
	$(GO) run ./cmd/digs-bench -bench-gate BENCH_scale.json
	$(GO) run ./cmd/digs-load -gate BENCH_server.json

## bench-warmstart: regenerate BENCH_warmstart.json — cold vs warm-started
## chaos campaign wall-clock, with a byte-identity check on the reports.
bench-warmstart:
	$(GO) run ./cmd/digs-chaos -plan fig8 -topology testbed-a \
		-protocols digs,orchestra,whart -bench-warmstart BENCH_warmstart.json >/dev/null

## baseline: regenerate BENCH_baseline.json — sequential vs parallel
## wall-clock for reference campaigns, with a bit-identity check.
baseline:
	$(GO) run ./cmd/digs-bench -perf-baseline BENCH_baseline.json

clean:
	$(GO) clean ./...
