# proxykit — common development targets.

GO ?= go

.PHONY: all build vet perfbench-vet test race check audit-verify gateway-smoke loadgen-smoke repl-smoke soak bench bench-smoke bench-rpc bench-ledger bench-loadgen crash experiments examples cover fuzz clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The benchmark harness (perfbench/) is its own module, so the root
# build and vet never compile it; it drives the bank through the durable
# host's API, so a change there must keep it compiling. Works offline:
# perfbench requires proxykit through a `replace => ../`.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The packages with concurrent hot paths (atomic metrics, TCP RPC,
# check clearing, retrying clients, the chaos suite) run under the race
# detector; `make check` includes this, the full suite does not need it
# on every run.
race:
	$(GO) test -race ./internal/transport/... ./internal/obs/... ./internal/accounting/... \
		./internal/chaos/... ./internal/faultpoint/... ./internal/svc/... \
		./internal/endserver/... ./internal/proxy/... ./internal/group/... \
		./internal/ledger/... ./internal/gateway/... ./internal/loadgen/... \
		./internal/soak/... ./internal/repl/... ./internal/authz/... \
		./internal/durable/... ./internal/daemon/...

check: build vet perfbench-vet test race

# Round-trip an audit journal through the real `proxyctl audit verify`
# binary: a clean chain exits 0, a single flipped byte exits non-zero.
audit-verify:
	$(GO) test ./internal/integration/ -run TestAuditVerifyCLI -v

# Stand up the full edge path — gatewayd core against live TCP daemons —
# drive every HTTP API route (authorize, transfer, balance, check
# write/deposit, introspection), and verify the audit hash chains of
# the gateway, the end-server, and the bank afterwards.
gateway-smoke:
	$(GO) test ./internal/integration/ -run 'TestGateway(Smoke|EndToEnd|Impersonation|ErrorMapping|DocCatalogue)' -v -count=1

# Fast replication/failover subset: WAL shipping to a hot standby,
# semi-sync commit acknowledgment, snapshot catch-up, fenced promotion,
# and the end-to-end TCP failover (standby reads, promote via RPC,
# deposed primary refused) — the quick proof that -standby/-replicate-from
# and `proxyctl promote` still work. The kill-the-primary chaos test and
# the soak storm's promote-under-load audit are the heavier layers.
repl-smoke:
	$(GO) test ./internal/repl/ -run 'TestStandbyTailsPrimary|TestSemiSync|TestCatchUpViaSnapshot|TestPromote' -v -count=1
	$(GO) test ./internal/integration/ -run TestReplFailoverOverTCP -v -count=1

# Seeded 5-second mixed workload (authorize/transfer/deposit/gateway)
# through the full in-process topology via the open-loop generator:
# asserts zero SLO parse errors, zero op errors, and a well-formed
# BENCH_PR7.json report document.
loadgen-smoke:
	$(GO) test ./internal/loadgen/ -run TestLoadgenSmoke -v -count=1 -loadgen.duration=5s

# Kill-and-recover chaos suite: SIGKILL a bank at a fault-injected WAL
# append boundary, replay the ledger, and audit the recovered books
# (internal/chaos/crash_recovery_test.go), plus the lossless-recovery
# property tests over snapshot + WAL.
crash:
	$(GO) test ./internal/chaos/ -run TestCrashRecovery -v -count=1
	$(GO) test ./internal/accounting/ -run 'TestRecovery' -v -count=1

# Continuous mixed-scenario soak storm (internal/soak): every workload
# concurrently against a fresh multi-realm topology, fault injection on
# the clearing hop, SIGKILL crash/recovery of the child-process bank
# with a hot standby promoted and audited under load on every crash
# cycle, and an always-on verifier asserting conservation, exactly-once
# clearing, audit-chain integrity, and trace completeness. On a
# violation the run fails with the seed and a reproduction command.
# Override: make soak SOAK_TIME=10m SOAK_SEED=42
SOAK_TIME ?= 60s
SOAK_SEED ?= 1
# go test's own watchdog; 0 disables it so multi-hour soaks can run.
SOAK_TIMEOUT ?= 0

soak:
	$(GO) test ./internal/soak/ -run TestSoakStorm -v -count=1 \
		-timeout $(SOAK_TIMEOUT) -soak.time=$(SOAK_TIME) -soak.seed=$(SOAK_SEED)

bench:
	$(GO) test -bench=. -benchmem . ./internal/transport/

# One iteration of every benchmark — a CI smoke test that the
# benchmarks still compile and run, not a measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' . ./internal/transport/ ./internal/accounting/ ./internal/ledger/

# Regenerate BENCH_PR4.json (multiplexed-vs-serialized RPC throughput,
# cold-vs-warm chain-cache authorize latency).
bench-rpc:
	$(GO) run ./cmd/benchrpc -o BENCH_PR4.json

# Regenerate BENCH_PR9.json: the PR-5 WAL overhead trio (in-memory vs
# fsync=off vs fsync=always), the group-commit speedup matrix (8
# concurrent committers at fsync=always, batched vs per-append fsync,
# as raw ledger appends and striped bank transfers), and an open-loop
# loadgen run compared per-op against the BENCH_PR7.json baseline.
bench-ledger:
	$(GO) run ./cmd/loadgen -o .loadgen_pr9.json
	$(GO) run ./cmd/benchledger -loadgen .loadgen_pr9.json -loadgen-baseline BENCH_PR7.json -o BENCH_PR9.json
	rm -f .loadgen_pr9.json

# Regenerate BENCH_PR7.json (open-loop mixed workload against the
# in-process topology, judged against the standard SLO objectives).
bench-loadgen:
	$(GO) run ./cmd/loadgen -o BENCH_PR7.json

experiments:
	$(GO) run ./cmd/benchproxy

examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
		echo; \
	done

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Each fuzzer runs for a short fixed budget (override with
# FUZZTIME=5m make fuzz for a longer local session). Every -fuzz regex
# is anchored, so each line selects exactly the fuzzer it names: go test
# fuzzes one target per run, and every target gets its own line.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz='^FuzzUnmarshal$$' -fuzztime=$(FUZZTIME) ./internal/restrict/
	$(GO) test -fuzz='^FuzzUnmarshalCertificate$$' -fuzztime=$(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz='^FuzzUnmarshalPresentation$$' -fuzztime=$(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz='^FuzzVerifyFile$$' -fuzztime=$(FUZZTIME) ./internal/audit/
	$(GO) test -fuzz='^FuzzReplayJournal$$' -fuzztime=$(FUZZTIME) ./internal/ledger/
	$(GO) test -fuzz='^FuzzPullResult$$' -fuzztime=$(FUZZTIME) ./internal/repl/

clean:
	rm -f cover.out test_output.txt bench_output.txt
