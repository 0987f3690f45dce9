package core

import (
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestCLIBindFlags pins the names and defaults each selection registers:
// the shared flags kept the spelling every command had before they were
// bound in one place.
func TestCLIBindFlags(t *testing.T) {
	for _, tc := range []struct {
		with CLIFlags
		want map[string]string
	}{
		// isccompile, isccluster
		{0, map[string]string{"trace": "", "pprof": ""}},
		// iscstudy, iscd
		{CorpusFlags, map[string]string{"trace": "", "pprof": "", "corpus": "", "corpus-entries": "0"}},
		// iscgen, iscsweep
		{CorpusFlags | HWLibFlag, map[string]string{"trace": "", "pprof": "", "corpus": "", "corpus-entries": "0", "hwlib": ""}},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var c CLI
		c.BindFlags(fs, tc.with)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("BindFlags(%b) registered %v, want %v", tc.with, got, tc.want)
		}
	}
}

// TestCLIStartClose drives a parsed command line through Start and Close:
// the trace dump parses, and the corpus's disk tier is closed.
func TestCLIStartClose(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	corpusDir := filepath.Join(dir, "corpus")

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c CLI
	c.BindFlags(fs, CorpusFlags|HWLibFlag)
	if err := fs.Parse([]string{"-trace", trace, "-corpus", corpusDir, "-hwlib", "dsp16"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start("clitest"); err != nil {
		t.Fatal(err)
	}
	if c.Telemetry == nil || c.Corpus == nil || c.Lib == nil {
		t.Fatalf("Start left telemetry %v, corpus %v, lib %v", c.Telemetry, c.Corpus, c.Lib)
	}
	if got := c.Corpus.Stats().Dir; got != corpusDir {
		t.Fatalf("corpus dir %q, want %q", got, corpusDir)
	}
	c.Telemetry.Span("explore", func() {})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Stats reports the directory only while the disk tier is open.
	if got := c.Corpus.Stats().Dir; got != "" {
		t.Errorf("corpus still has its disk tier %q after Close", got)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := telemetry.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tool != "clitest" || len(s.Spans) != 1 {
		t.Errorf("trace dump has tool %q and %d spans, want clitest and 1", s.Tool, len(s.Spans))
	}
}

// TestCLIUnset checks that a command line without the shared flags opens
// nothing and that Close then has nothing to do.
func TestCLIUnset(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c CLI
	c.BindFlags(fs, CorpusFlags|HWLibFlag)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start("clitest"); err != nil {
		t.Fatal(err)
	}
	if c.Telemetry != nil || c.Corpus != nil || c.Lib == nil {
		t.Fatalf("Start left telemetry %v, corpus %v, lib %v", c.Telemetry, c.Corpus, c.Lib)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
