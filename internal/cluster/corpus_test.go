package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/server"
)

// TestClusterCorpusShardingAndAggregation boots corpus-backed replicas
// behind an affinity router and checks the shard-map story end to end:
// a program's repeat requests land on (and warm) one replica's corpus,
// the X-Iscd-Corpus header passes through the router, and GET /v1/corpus
// aggregates every replica's stats into one cluster-wide view.
func TestClusterCorpusShardingAndAggregation(t *testing.T) {
	var cfg Config
	for i := 0; i < 2; i++ {
		store, err := corpus.Open("", 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{
			Name:          fmt.Sprintf("r%d", i+1),
			MaxConcurrent: 2,
			Corpus:        store,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: fmt.Sprintf("r%d", i+1), URL: ts.URL})
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	// Cold request: the affinity ring picks this program's home replica.
	resp, _ := postCluster(t, front.URL, `{"benchmark":"rawdaudio","budget":8,"deadline_ms":60000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request returned %d", resp.StatusCode)
	}
	home := resp.Header.Get("X-Isccluster-Replica")
	if got := resp.Header.Get("X-Iscd-Corpus"); !strings.HasPrefix(got, "hits=0 misses=") || got == "hits=0 misses=0" {
		t.Fatalf("cold request X-Iscd-Corpus = %q, want hits=0 with nonzero misses", got)
	}

	// Same program, different budget: same routing key, so the request
	// lands on the same replica and replays its warmed corpus — the ring
	// is the shard map.
	resp, _ = postCluster(t, front.URL, `{"benchmark":"rawdaudio","budget":9,"deadline_ms":60000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Isccluster-Replica"); got != home {
		t.Fatalf("warm request routed to %s, want the home replica %s", got, home)
	}
	if got := resp.Header.Get("X-Iscd-Corpus"); strings.HasPrefix(got, "hits=0") || !strings.HasSuffix(got, "misses=0") {
		t.Fatalf("warm request X-Iscd-Corpus = %q, want nonzero hits and zero misses", got)
	}

	// The aggregation endpoint sums the fleet.
	aresp, err := http.Get(front.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	body, err := io.ReadAll(aresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/corpus: status %d: %s", aresp.StatusCode, body)
	}
	var view struct {
		Policy   string          `json:"policy"`
		Enabled  int             `json:"enabled"`
		Replicas []corpusReplica `json:"replicas"`
		Total    corpus.Stats    `json:"total"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decoding /v1/corpus: %v", err)
	}
	if view.Enabled != 2 || len(view.Replicas) != 2 {
		t.Fatalf("aggregation saw %d enabled of %d rows, want 2 of 2", view.Enabled, len(view.Replicas))
	}
	if view.Total.Inserts == 0 || view.Total.Hits == 0 || view.Total.Entries == 0 {
		t.Fatalf("aggregate totals = %+v, want nonzero inserts, hits, entries", view.Total)
	}
	for _, row := range view.Replicas {
		if row.Error != "" || !row.Enabled || row.Stats == nil {
			t.Fatalf("replica row %+v, want enabled with stats", row)
		}
	}
	// Every numeric field of the total is the sum of the replica rows,
	// found by reflection so a new Stats field cannot be left out.
	total := reflect.ValueOf(view.Total)
	for i := 0; i < total.NumField(); i++ {
		f := total.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
		default:
			continue
		}
		var sum int64
		for _, row := range view.Replicas {
			sum += reflect.ValueOf(*row.Stats).Field(i).Int()
		}
		if got := total.Field(i).Int(); got != sum {
			t.Errorf("total.%s = %d, want the replica sum %d", f.Name, got, sum)
		}
	}
}
