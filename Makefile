# Developer entry points; CI runs the same steps (.github/workflows/ci.yml).
# Benchmark methodology and the BENCH_<n>.json format: see BENCH.md.

GO ?= go
# Benchmarks included in the BENCH_<n>.json trajectory record. ScheddLoad
# is the serving family: end-to-end request latency percentiles and
# admission outcomes of the schedd daemon (BENCH.md). OutOfCoreExecute is
# the byte-level executor with the memory and the file spill store.
# ScheduleLiveDataset runs the paper's algorithms with the SYNTH dataset
# live and reports the live heap objects it leaves (DESIGN.md §2.15).
# WarmStaircase200k times the sharded profile warm alone, the one row
# whose warm runs more than one worker (DESIGN.md §2.5).
BENCH ?= RecExpand|FiFSimulator|OptMinMem3000|PostOrderMinIO3000|ScheduleLiveDataset|ScheddLoad|OutOfCoreExecute|WarmStaircase200k
# Trajectory index: bench-json writes BENCH_$(N).json at the repo root.
N ?= 1

.PHONY: test test-race test-faultinject fuzz-smoke certify certify-long build vet bench bench-json bench-smoke perfbench-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# The sharded profile-cache warm must be race-clean; CI runs this as a
# separate job.
test-race:
	$(GO) test -race ./...

# Fault-injection build: the seed-driven registry is live and the grid
# replays the instance corpus with one fault armed per run (DESIGN.md §2.9).
# Includes the checkpoint grid: CkptWrite/CkptRename faults at planned
# hits, WriterIO faults in the CLI outputs, each followed by a resume that
# must reproduce the uninterrupted result (DESIGN.md §2.10).
test-faultinject:
	$(GO) test -tags faultinject ./...

# 20s-per-target smoke of the reader fuzz surface; crashers land in
# <pkg>/testdata/fuzz. CI runs the same four steps.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 20s ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 20s ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzReadSchedule$$' -fuzztime 20s ./internal/tree
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 20s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzCertifySmall$$' -fuzztime 20s ./internal/cert
	$(GO) test -run '^$$' -fuzz '^FuzzCertifyProperties$$' -fuzztime 20s ./internal/cert

# The optimality-certification harness (DESIGN.md §2.12): a seeded sweep
# certified against the brute oracles plus the metamorphic property suite.
# CI runs the same 200-instance race-enabled smoke; certify-long is the
# local soak (more instances, more properties, bigger brute budget).
certify:
	$(GO) run -race ./cmd/certify -n 200 -seed 1

certify-long:
	$(GO) run -race ./cmd/certify -n 5000 -props 500 -max-orders 20000000 -seed 1

# The exactly-once serving surface under injected network chaos
# (DESIGN.md §2.13), race-enabled: the seeded client↔proxy↔daemon grid
# with drain failover, the retrying client's repair/resume suite, and the
# idempotency journal (byte-identity, single-flight, conflict, corruption,
# write-deadline sealing). CI runs the same steps as the chaos-smoke job.
chaos:
	$(GO) test -race ./internal/chaosnet ./internal/schedclient
	$(GO) test -race -run 'Idempotent|Journal|RetryAfter|ResumeFrom|DeadlineWriter' ./internal/schedd
	$(GO) test -race -tags faultinject -run 'WriteDeadlineSeal' ./internal/schedd

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem .

# Record the benchmark trajectory: BENCH_$(N).json with ns/op, allocations
# and the custom metrics of every matched benchmark.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime 5x . \
		| $(GO) run ./cmd/benchjson -out BENCH_$(N).json
	@echo wrote BENCH_$(N).json

# One-iteration smoke for CI: every benchmark must at least run (the
# RecExpand pattern also covers the RecExpandParallel warm-shard sweep).
bench-smoke:
	$(GO) test -run '^$$' -bench 'RecExpand|OutOfCoreExecute|ScheduleLiveDataset|PostOrderMinIO3000|OptMinMem3000|WarmStaircase200k' -benchtime 1x .

# The repository benchmark's own module (perfbench/, BENCHMARK.json): vet
# it and run every workload in --smoke mode. The root module's build and
# tests never compile it; CI's perfbench job runs the same command.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
