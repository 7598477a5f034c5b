# Convenience targets over the CI gates. scripts/check.sh is the
# single source of truth for what "clean" means; the CI jobs and
# `make check` both run it piecewise.
.PHONY: check race test pnnvet smoke load coverage experiments bench

check:
	./scripts/check.sh

race:
	CHECK_RACE=1 ./scripts/check.sh

test:
	go test ./...

pnnvet:
	go run ./cmd/pnnvet ./...

smoke:
	./scripts/server_smoke.sh
	./scripts/router_smoke.sh
	./scripts/store_smoke.sh
	./scripts/load_smoke.sh

load:
	./scripts/load_smoke.sh

coverage:
	./scripts/coverage.sh

experiments:
	./scripts/experiments.sh

# The CI bench job's gate, locally: a quick microbench run into a temp
# dir, diffed against the committed bench/ baseline at benchdiff's
# default tolerances.
bench:
	@dir=$$(mktemp -d) && \
	go run ./cmd/pnnbench -experiment microbench -quick -json "$$dir" && \
	go run ./cmd/benchdiff -base bench -new "$$dir" -v; \
	status=$$?; rm -rf "$$dir"; exit $$status
