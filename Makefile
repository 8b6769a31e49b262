GO ?= go

.PHONY: check vet build test race bench-check audit bench bench-smoke bench-gate pop-smoke fuzz-smoke chaos-smoke advsearch-smoke duid-smoke robustness-smoke report

## check: the full gate — vet, build, race-enabled tests, and the
## benchmark module.
check: vet build race bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench-check: vet and test bench/, the end-to-end benchmark. It is a
## nested Go module, so ./... above never reaches it, yet it compiles
## against the campaign API and its golden digests pin the result bytes of
## all four benchmark workloads.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## audit: the race-enabled suite with the invariant-audit layer forced on
## (engine causality checks + audited experiment paths). The 0 allocs/op
## guards are skipped under -race, so this does not fight the alloc gate.
## It runs tests in a shuffled order: a test that leaks a debug hook or
## other global state into a later one fails with the printed seed, which
## -shuffle=<seed> replays. `make check` keeps the fixed order.
audit:
	DUI_AUDIT=1 $(GO) test -race -shuffle=on ./...

## bench: the per-experiment and substrate benchmarks (minutes); writes
## BENCH_5.json, the repo's benchmark-trajectory file (BENCH_2.json is the
## frozen pre-timing-wheel snapshot, BENCH_3.json the pre-PoP-scale one,
## BENCH_4.json the frozen PoP-scale one), and reports BENCH_FLOOR.json's
## floors against it, warn-only.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=1 -timeout 60m . | $(GO) run ./cmd/benchgate BENCH_5.json

## bench-smoke: the fast substrate subset CI runs on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench=Substrate -benchtime=100x -benchmem .

## bench-gate: run the engine, PoP, audited-scenario and matrix-system
## benchmarks, write BENCH_GATE.json and compare it against the checked-in
## floors in BENCH_FLOOR.json. Perf floors are warn-only (shared runners
## are noisy), but the allocs/op ceilings are scheduling-independent and
## hard-fail via -strict-allocs.
bench-gate:
	$(GO) test -run '^$$' -bench='Engine|PopScale|ScenarioAudited|MatrixSystem' -benchmem -count=1 -timeout 20m . \
		| $(GO) run ./cmd/benchgate -strict-allocs BENCH_GATE.json

## pop-smoke: the PoP-scale determinism gate — a 512-prefix / ~34k-flow
## duireport blink-pop run executed single-shard single-worker, with 7
## shards on 4 workers, and at the default 32 shards; the deterministic
## stdout must be byte-identical (cmp) or the target fails. Per-prefix
## agreement with one-prefix banks is TestRunMatchesOnePrefixBanks.
pop-smoke:
	$(GO) build -o /tmp/pop-smoke-duireport ./cmd/duireport
	/tmp/pop-smoke-duireport blink-pop -quick -shards 1 -parallel 1 2>/dev/null > /tmp/pop-smoke-a.txt
	/tmp/pop-smoke-duireport blink-pop -quick -shards 7 -parallel 4 2>/dev/null > /tmp/pop-smoke-b.txt
	/tmp/pop-smoke-duireport blink-pop -quick 2>/dev/null > /tmp/pop-smoke-c.txt
	cmp /tmp/pop-smoke-a.txt /tmp/pop-smoke-b.txt
	cmp /tmp/pop-smoke-a.txt /tmp/pop-smoke-c.txt
	@echo "pop-smoke: shard/worker-count independent output verified"

## fuzz-smoke: a race-enabled 200-seed scenario-fuzzing campaign (duireport
## simfuzz) with shrinking plus a replay of the committed reproducer
## corpus — the audit-oracle campaign CI runs on every push (seconds,
## deterministic) —
## then 15 s of coverage-guided fuzzing of campaign.JobSpec.Canon over
## job bodies (FuzzCanon), 10 s of the campaign server's POST /v1/jobs
## handler over request bodies (FuzzHandleSubmit) and 10 s of journal.Open
## over arbitrary file bytes (FuzzJournalOpen); plain `go test` runs only
## their seeds.
fuzz-smoke:
	$(GO) run -race ./cmd/duireport simfuzz -seeds 200 -shrink
	$(GO) run -race ./cmd/duireport simfuzz -replay internal/fuzz/testdata/corpus
	$(GO) test -run '^$$' -fuzz '^FuzzCanon$$' -fuzztime 15s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzHandleSubmit$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime 10s ./internal/journal

## chaos-smoke: the race-enabled fault-plane gate — a reduced duireport
## chaos-eval sweep (gray-failure intensity vs Blink inference, 3 levels x
## 3 trials) plus a short fault-mode fuzzing campaign (duireport simfuzz
## -faults). Both are seed-deterministic.
chaos-smoke:
	$(GO) run -race ./cmd/duireport chaos-eval -quick
	$(GO) run -race ./cmd/duireport simfuzz -seeds 100 -faults -shrink

## advsearch-smoke: the adversary-synthesis determinism gate — a quick
## attack-frontier search over the matrix's Blink, Pytheas and PCC
## deployments (duireport advsearch: guarded vs unguarded, CEM) run once on
## one worker and once on four; the JSON on stdout must be byte-identical
## (cmp) or the target fails.
advsearch-smoke:
	$(GO) build -o /tmp/advsearch-smoke-duireport ./cmd/duireport
	/tmp/advsearch-smoke-duireport advsearch -quick -parallel 1 2>/dev/null > /tmp/advsearch-a.json
	/tmp/advsearch-smoke-duireport advsearch -quick -parallel 4 2>/dev/null > /tmp/advsearch-b.json
	cmp /tmp/advsearch-a.json /tmp/advsearch-b.json
	@echo "advsearch-smoke: worker-count independent frontier verified"

## duid-smoke: the campaign-service gate — a fuzz campaign submitted over
## the duid HTTP API is kill -9'd mid-run, restarted over the same state
## directory, and must resume from its journals to result bytes identical
## (cmp) to a direct duireport simfuzz -json run; an identical
## resubmission must be served from the result cache without re-execution.
duid-smoke:
	./scripts/duid_smoke.sh

## robustness-smoke: the robustness-matrix determinism gate — the quick
## duireport robustness matrix run inline on 1 and 4 workers and via a duid
## server must be byte-identical (cmp), and the resubmission must hit the
## result cache.
## Leaves the matrix JSON at robustness-matrix.json (CI artifact).
robustness-smoke:
	./scripts/robustness_smoke.sh

## report: regenerate the full reproduction report on all cores.
report:
	$(GO) run ./cmd/duireport -parallel 0
