GO ?= go

.PHONY: verify build test race bench fmt vet lint detvet detvet-bin

verify:
	sh scripts/verify.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	GOMAXPROCS=4 $(GO) test -race ./internal/core/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/

bench:
	$(GO) test -run xxx -bench . -benchtime 10x .

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# detvet-bin builds the determinism analyzer suite and prints the binary
# path (its only stdout), so it composes as: go vet -vettool=$(make detvet-bin) ./...
detvet-bin:
	@$(GO) build -o bin/detvet ./tools/detvet
	@echo $(CURDIR)/bin/detvet

# lint runs the repo's determinism analyzers over the whole tree via go vet
# (the per-package unitchecker protocol: maporder, wallclock, nativesync,
# lockcheck, pincheck).
lint:
	$(GO) build -o bin/detvet ./tools/detvet
	$(GO) vet -vettool=$(CURDIR)/bin/detvet ./...

# detvet runs the analyzers in standalone whole-program mode, which adds the
# cross-package statwire pass (stats wiring) on top of the vettool set.
# Incremental: package export data comes from the go build cache.
detvet:
	$(GO) run ./tools/detvet ./...
