package core

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/corpus"
	"repro/internal/hwlib"
	"repro/internal/telemetry"
)

// CLIFlags selects the optional process flags a tool binds through
// CLI.BindFlags; -trace and -pprof are always bound.
type CLIFlags uint

const (
	// CorpusFlags binds -corpus and -corpus-entries.
	CorpusFlags CLIFlags = 1 << iota
	// HWLibFlag binds -hwlib.
	HWLibFlag
)

// CLI holds the process flags the command-line tools share (-trace,
// -pprof, -corpus, -corpus-entries, -hwlib) and what they open. Bind the
// flags, parse, call Start, run, then call Close.
type CLI struct {
	// TracePath is -trace: where Close writes the telemetry dump.
	TracePath string
	// PprofAddr is -pprof: where Start serves net/http/pprof.
	PprofAddr string
	// CorpusDir and CorpusEntries are -corpus and -corpus-entries.
	CorpusDir     string
	CorpusEntries int
	// HWLibPath is -hwlib: a JSON library file or a built-in name.
	HWLibPath string

	// Telemetry is the registry, created by Start when -trace is set. A
	// server whose /metrics reads it sets it before Start instead.
	Telemetry *telemetry.Registry
	// Corpus is the exploration corpus, opened by Start when -corpus or
	// -corpus-entries is set.
	Corpus *corpus.Corpus
	// Lib is the -hwlib library (the default calibration when unset).
	Lib *hwlib.Library
}

// BindFlags registers -trace and -pprof on fs, plus the flags with
// selects, writing into c.
func (c *CLI) BindFlags(fs *flag.FlagSet, with CLIFlags) {
	fs.StringVar(&c.TracePath, "trace", "", "write a structured telemetry dump (JSON) to this file at exit; a per-stage summary goes to stderr")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if with&CorpusFlags != 0 {
		fs.StringVar(&c.CorpusDir, "corpus", "", "disk-backed exploration corpus directory: explored blocks replay from and persist to it across runs, with byte-identical output (\"\" = off)")
		fs.IntVar(&c.CorpusEntries, "corpus-entries", 0, "in-memory corpus LRU capacity in block entries (0 = 4096); the disk tier keeps everything")
	}
	if with&HWLibFlag != 0 {
		fs.StringVar(&c.HWLibPath, "hwlib", "", "JSON hardware library, or the built-in name \"dsp16\" (16-bit-multiplier video calibration; default: the 0.18u calibration)")
	}
}

// Start serves pprof, creates a registry named tool when -trace is set,
// opens the corpus and loads the hardware library, as the parsed flags
// ask.
func (c *CLI) Start(tool string) error {
	if c.PprofAddr != "" {
		if err := telemetry.ServePprof(c.PprofAddr); err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		log.Printf("pprof listening on %s", c.PprofAddr)
	}
	if c.Telemetry == nil && c.TracePath != "" {
		c.Telemetry = telemetry.New(tool)
	}
	if c.CorpusDir != "" || c.CorpusEntries > 0 {
		store, err := corpus.Open(c.CorpusDir, c.CorpusEntries)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		c.Corpus = store
	}
	lib, err := hwlib.LoadOrDefault(func(path string) (io.ReadCloser, error) { return os.Open(path) }, c.HWLibPath)
	if err != nil {
		return err
	}
	c.Lib = lib
	return nil
}

// Close logs the corpus's hit, miss and load counts and closes it, then
// writes the -trace dump and its per-stage summary. The log and the
// summary go to the log's writer (stderr), so stdout is the same with or
// without them.
func (c *CLI) Close() error {
	var errs []error
	if c.Corpus != nil {
		s := c.Corpus.Stats()
		log.Printf("corpus: %d hits, %d misses, %d entries (%d loaded, %d load errors; %d disk segments, %d bytes)",
			s.Hits, s.Misses, s.Entries, s.Loaded, s.LoadErrors, s.Segments, s.DiskBytes)
		if err := c.Corpus.Close(); err != nil {
			errs = append(errs, fmt.Errorf("corpus close: %w", err))
		}
	}
	if c.TracePath != "" {
		if err := c.Telemetry.WriteFile(c.TracePath); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
		c.Telemetry.WriteSummary(log.Writer())
	}
	return errors.Join(errs...)
}
