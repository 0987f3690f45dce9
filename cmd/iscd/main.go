// Command iscd is the customization service daemon: the full hardware- and
// software-compiler pipeline behind an HTTP/JSON API with a
// content-addressed result cache, request coalescing, bounded admission,
// per-request deadlines, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	iscd -addr localhost:8080 -j 8 -cache 256 -deadline 30s
//
// Quickstart:
//
//	curl -s localhost:8080/v1/benchmarks
//	curl -s -X POST localhost:8080/v1/customize \
//	     -d '{"benchmark":"blowfish","budget":15}'
//
// See docs/ARCHITECTURE.md for the API and the caching/coalescing model.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscd: ")
	addr := flag.String("addr", "localhost:8080", "listen address")
	name := flag.String("name", "iscd", "replica name (appears in /healthz and keys the replica fault-injection site)")
	jobs := flag.Int("j", 0, "pipeline token budget: requests whose pipeline may run at once (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 256, "result-cache capacity in entries")
	deadline := flag.Duration("deadline", 0, "default per-request pipeline deadline (0 = none); expiry returns a truncated best-so-far result")
	drainTimeout := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests before giving up")
	var cli core.CLI
	cli.BindFlags(flag.CommandLine, core.CorpusFlags)
	flag.Parse()

	// /metrics reads the registry, so it exists with or without -trace.
	cli.Telemetry = telemetry.New("iscd")
	if err := cli.Start("iscd"); err != nil {
		log.Fatal(err)
	}
	// -corpus-entries alone still enables a memory-only corpus: useful for
	// a single long-lived replica that wants warm-start without a disk tier.
	if cli.Corpus != nil {
		s := cli.Corpus.Stats()
		log.Printf("corpus: %d entries loaded, %d load errors; %d held (%d segments, %d bytes) from %q",
			s.Loaded, s.LoadErrors, s.Entries, s.Segments, s.DiskBytes, cli.CorpusDir)
	}
	srv := server.New(server.Config{
		Name:            *name,
		MaxConcurrent:   *jobs,
		CacheEntries:    *cacheEntries,
		DefaultDeadline: *deadline,
		Telemetry:       cli.Telemetry,
		Corpus:          cli.Corpus,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on http://%s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight pipeline runs
	// deliver their responses, then exit.
	log.Printf("draining (up to %v)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := cli.Close(); err != nil {
		log.Fatal(err)
	}
}
