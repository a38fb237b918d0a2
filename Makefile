# Local entry points mirroring the CI gates. `make lint` is the same
# static-analysis sweep the blocking CI lint job runs (staticcheck is
# skipped with a note when the binary isn't installed — CI always runs
# it).

GO ?= go
BIN := bin

.PHONY: all build lint fmt vet demsortvet staticcheck test race runform-bench clean

all: build lint test

build:
	$(GO) build ./...

lint: fmt vet demsortvet staticcheck

# Fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

demsortvet:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/demsortvet ./cmd/demsortvet
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/demsortvet ./...
	$(GO) test -timeout 120s ./internal/analysis/...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test -timeout 900s ./...

race:
	$(GO) test -race -timeout 900s ./...

# One-iteration smoke of the run-formation parallel radix benchmark —
# the same gate CI runs; use -benchtime=10x locally for real numbers.
runform-bench:
	$(GO) test -bench=RunFormationScaling -benchtime=1x -run='^$$' .

clean:
	rm -rf $(BIN)
