package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestServerCorpusWarmStart drives the whole corpus surface of one
// replica: the X-Iscd-Corpus header on fresh runs, its absence on result-
// cache hits, byte-identity of warm replies to a corpus-free server's,
// GET /v1/corpus, and the /metrics gauges.
func TestServerCorpusWarmStart(t *testing.T) {
	store, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ts := newTestServer(t, Config{Corpus: store})
	_, _, bare := newTestServer(t, Config{})

	// Cold run: a fresh pipeline that found nothing memoized.
	resp, _ := postCustomize(t, ts.URL, `{"benchmark":"rawdaudio","budget":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Iscd-Corpus"); !strings.HasPrefix(got, "hits=0 misses=") || got == "hits=0 misses=0" {
		t.Fatalf("cold run X-Iscd-Corpus = %q, want hits=0 with nonzero misses", got)
	}

	// Warm run: a different budget dodges the result cache (budget is in
	// the cache key) but replays every block (budget is selection-side,
	// not in the corpus key).
	resp, warmBody := postCustomize(t, ts.URL, `{"benchmark":"rawdaudio","budget":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run returned %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Iscd-Cache") != "miss" {
		t.Fatalf("warm run was a cache %s, want a fresh run", resp.Header.Get("X-Iscd-Cache"))
	}
	if got := resp.Header.Get("X-Iscd-Corpus"); !strings.HasPrefix(got, "hits=") || strings.HasPrefix(got, "hits=0") || !strings.HasSuffix(got, "misses=0") {
		t.Fatalf("warm run X-Iscd-Corpus = %q, want nonzero hits and zero misses", got)
	}

	// Byte-identity: the warm reply must equal a corpus-free server's.
	resp, coldBody := postCustomize(t, bare.URL, `{"benchmark":"rawdaudio","budget":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus-free run returned %d", resp.StatusCode)
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Fatal("warm reply differs from the corpus-free server's bytes")
	}
	if resp.Header.Get("X-Iscd-Corpus") != "" {
		t.Fatal("corpus-free server sent an X-Iscd-Corpus header")
	}

	// A result-cache hit serves stored bytes without running the pipeline,
	// so it carries no corpus header.
	resp, _ = postCustomize(t, ts.URL, `{"benchmark":"rawdaudio","budget":8}`)
	if resp.Header.Get("X-Iscd-Cache") != "hit" {
		t.Fatalf("repeat request was a cache %s, want hit", resp.Header.Get("X-Iscd-Cache"))
	}
	if got := resp.Header.Get("X-Iscd-Corpus"); got != "" {
		t.Fatalf("cache hit carried X-Iscd-Corpus %q, want none", got)
	}

	// GET /v1/corpus reports the store's accounting.
	var status CorpusStatus
	getJSON(t, ts.URL+"/v1/corpus", &status)
	if !status.Enabled || status.Stats == nil {
		t.Fatalf("corpus status = %+v, want enabled with stats", status)
	}
	if status.Stats.Entries == 0 || status.Stats.Hits == 0 || status.Stats.Inserts == 0 {
		t.Fatalf("corpus stats = %+v, want nonzero entries, hits, inserts", *status.Stats)
	}
	var bareStatus CorpusStatus
	getJSON(t, bare.URL+"/v1/corpus", &bareStatus)
	if bareStatus.Enabled || bareStatus.Stats != nil {
		t.Fatalf("corpus-free status = %+v, want disabled", bareStatus)
	}

	// The metrics page grows the corpus gauges.
	page := getText(t, ts.URL+"/metrics")
	for _, want := range []string{"iscd_corpus_enabled 1", "iscd_corpus_entries ", "iscd_corpus_hits ", "iscd_corpus_misses ", "iscd_corpus_inserts ",
		"iscd_corpus_loaded 0\n", "iscd_corpus_load_errors 0\n"} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page lacks %q", want)
		}
	}
	if !strings.Contains(getText(t, bare.URL+"/metrics"), "iscd_corpus_enabled 0") {
		t.Error("corpus-free metrics page lacks iscd_corpus_enabled 0")
	}
}

// TestServerCorpusPersistsAcrossRestart is the restart contract: a second
// server opening the same corpus directory replays blocks the first one
// explored, and its replies stay byte-identical. A torn record at the end
// of the segment must show up as a load error on /metrics while every whole
// record still loads.
func TestServerCorpusPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ts := newTestServer(t, Config{Corpus: store})
	resp, firstBody := postCustomize(t, ts.URL, `{"benchmark":"crc","budget":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run returned %d", resp.StatusCode)
	}
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	written := store.Stats().Inserts
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no corpus segment written (%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := corpus.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if s := reopened.Stats(); s.Entries == 0 {
		t.Fatalf("reopened corpus is empty: %+v", s)
	}
	_, _, ts2 := newTestServer(t, Config{Corpus: reopened})
	resp, secondBody := postCustomize(t, ts2.URL, `{"benchmark":"crc","budget":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart run returned %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Iscd-Cache") != "miss" {
		t.Fatal("post-restart run should miss the (fresh) result cache")
	}
	if got := resp.Header.Get("X-Iscd-Corpus"); strings.HasPrefix(got, "hits=0") || !strings.HasSuffix(got, "misses=0") {
		t.Fatalf("post-restart X-Iscd-Corpus = %q, want nonzero hits and zero misses", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("post-restart reply differs from the pre-restart bytes")
	}
	page := getText(t, ts2.URL+"/metrics")
	for _, want := range []string{fmt.Sprintf("iscd_corpus_loaded %d\n", written), "iscd_corpus_load_errors 1\n"} {
		if !strings.Contains(page, want) {
			t.Errorf("post-restart metrics page lacks %q", want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
