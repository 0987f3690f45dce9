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

	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscd: ")
	addr := flag.String("addr", "localhost:8080", "listen address")
	name := flag.String("name", "iscd", "replica name (appears in /healthz and keys the replica fault-injection site)")
	jobs := flag.Int("j", 0, "pipeline token budget shared by requests and their block-exploration workers (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 256, "result-cache capacity in entries")
	deadline := flag.Duration("deadline", 0, "default per-request pipeline deadline (0 = none); expiry returns a truncated best-so-far result")
	drainTimeout := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests before giving up")
	trace := flag.String("trace", "", "write a structured telemetry dump (JSON) to this file on shutdown; a per-stage summary goes to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	corpusDir := flag.String("corpus", "", "directory for the disk-backed exploration corpus; memoized per-block results persist across restarts (\"\" = no corpus)")
	corpusEntries := flag.Int("corpus-entries", 0, "in-memory corpus LRU capacity in block entries (0 = 4096); the disk tier keeps everything")
	flag.Parse()

	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", *pprofAddr)
	}
	tel := telemetry.New("iscd")
	// -corpus-entries alone still enables a memory-only corpus: useful for
	// a single long-lived replica that wants warm-start without a disk tier.
	var store *corpus.Corpus
	if *corpusDir != "" || *corpusEntries > 0 {
		c, err := corpus.Open(*corpusDir, *corpusEntries)
		if err != nil {
			log.Fatalf("corpus: %v", err)
		}
		store = c
		s := c.Stats()
		log.Printf("corpus: %d entries loaded (%d segments, %d bytes) from %q",
			s.Entries, s.Segments, s.DiskBytes, *corpusDir)
	}
	srv := server.New(server.Config{
		Name:            *name,
		MaxConcurrent:   *jobs,
		CacheEntries:    *cacheEntries,
		DefaultDeadline: *deadline,
		Telemetry:       tel,
		Corpus:          store,
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
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("corpus close: %v", err)
		}
	}

	if *trace != "" {
		if err := tel.WriteFile(*trace); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	tel.WriteSummary(os.Stderr)
}
