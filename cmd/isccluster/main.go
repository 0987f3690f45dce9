// Command isccluster fronts a fleet of iscd replicas: consistent-hash
// routing on the exact program fingerprint (so each replica's cache
// owns a shard of the keyspace), active health checking, per-replica
// circuit breakers, retry-with-backoff failover, and token-bucket
// admission control with SLO classes (gold/silver/bronze) that shed load
// by shrinking deadlines before rejecting.
//
// Its only flags are -addr, -replica and the shared -trace and -pprof.
// The tuning is fixed: a health probe every second (500ms timeout), a
// breaker that opens after 3 consecutive failures and probes again after
// 2s, one attempt per replica plus one retry, 100 admissions/s (burst
// 200) per class plus a shared degraded pool of 50/s (burst 100), and
// default deadlines of 30s (gold), 10s (silver) and 3s (bronze).
//
// Usage:
//
//	iscd -addr localhost:8081 -name r1 &
//	iscd -addr localhost:8082 -name r2 &
//	iscd -addr localhost:8083 -name r3 &
//	isccluster -addr localhost:9090 \
//	           -replica r1=http://localhost:8081 \
//	           -replica r2=http://localhost:8082 \
//	           -replica r3=http://localhost:8083
//
//	curl -s -X POST localhost:9090/v1/customize \
//	     -d '{"benchmark":"crc","budget":10,"slo":"gold"}'
//
// See docs/ARCHITECTURE.md for the routing, health, and shedding model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

type replicaList []cluster.ReplicaConfig

func (r *replicaList) String() string { return fmt.Sprintf("%d replicas", len(*r)) }

func (r *replicaList) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("replica %q is not name=url", v)
	}
	*r = append(*r, cluster.ReplicaConfig{Name: name, URL: url})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("isccluster: ")
	addr := flag.String("addr", "localhost:9090", "listen address")
	var replicas replicaList
	flag.Var(&replicas, "replica", "iscd replica as name=url (repeatable, at least one)")
	var cli core.CLI
	cli.BindFlags(flag.CommandLine, 0)
	flag.Parse()

	if len(replicas) == 0 {
		log.Fatal("at least one -replica name=url is required (see -h)")
	}
	// /metrics reads the registry, so it exists with or without -trace.
	cli.Telemetry = telemetry.New("isccluster")
	if err := cli.Start("isccluster"); err != nil {
		log.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Replicas: replicas, Telemetry: cli.Telemetry})
	if err != nil {
		log.Fatal(err)
	}
	cl.Start()
	defer cl.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: cl.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on http://%s, fronting %d replicas (affinity routing)", *addr, len(replicas))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	if err := cli.Close(); err != nil {
		log.Fatal(err)
	}
}
