package corpus

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/faultinject"
)

// segMagic is the versioned segment header. Bump the version byte on any
// framing or record-schema change: old segments then fail the header check
// and load as empty (counted in LoadErrors) instead of being misparsed.
const segMagic = "iscorpus\x01\n"

const (
	// maxRecordBytes rejects absurd frame lengths before allocating, so a
	// corrupt length prefix cannot balloon memory.
	maxRecordBytes = 16 << 20
	// maxSegmentBytes rotates the append segment, keeping individual files
	// replayable in bounded memory.
	maxSegmentBytes = 4 << 20
)

// Record is one decoded segment record.
type Record struct {
	Key   string
	Entry *Entry
}

// diskRec is the JSON payload inside one frame.
type diskRec struct {
	K string `json:"k"`
	E *Entry `json:"e"`
}

// diskStore is the append-only segment directory. Callers synchronize via
// the owning Corpus's mutex.
type diskStore struct {
	dir      string
	nextIdx  int
	f        *os.File // nil until the first append after open/rotate
	fBytes   int64
	segments int
	bytes    int64
}

func segName(idx int) string { return fmt.Sprintf("seg-%06d.log", idx) }

// openDisk loads every segment under dir (newest last, so later writes win
// on duplicate keys) and prepares the store for appends into a fresh
// segment. Decode and injected-fault problems degrade — the good records
// load, the error count rises, the returned store may be nil (memory-only)
// — and only an unusable directory is a hard error.
func openDisk(dir string) (ds *diskStore, recs []Record, loadErrs int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("corpus: %w", err)
	}
	if fireContained("load") != nil {
		return nil, nil, 1, nil
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("corpus: %w", err)
	}
	var segs []string
	maxIdx := 0
	for _, de := range names {
		n := de.Name()
		if !strings.HasPrefix(n, "seg-") || !strings.HasSuffix(n, ".log") {
			continue
		}
		segs = append(segs, n)
		var idx int
		if _, err := fmt.Sscanf(n, "seg-%06d.log", &idx); err == nil && idx > maxIdx {
			maxIdx = idx
		}
	}
	sort.Strings(segs)
	ds = &diskStore{dir: dir, nextIdx: maxIdx + 1, segments: len(segs)}
	for _, n := range segs {
		path := filepath.Join(dir, n)
		segRecs, decErr := decodeSegmentFile(path)
		recs = append(recs, segRecs...)
		if decErr != nil {
			loadErrs++
		}
		if fi, err := os.Stat(path); err == nil {
			ds.bytes += fi.Size()
		}
	}
	return ds, recs, loadErrs, nil
}

// decodeSegmentFile reads one segment, returning the good record prefix
// and the first error encountered (nil for a clean segment).
func decodeSegmentFile(path string) (recs []Record, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeAll(f)
}

// DecodeAll decodes a segment stream: the versioned header, then length-
// and CRC-framed JSON records. It returns every record up to the first
// corruption together with an error describing it (nil when the stream is
// clean); a torn tail — a partial final frame from a crash mid-write — is
// reported the same way. Decoding never panics and performs record-level
// validation, so corrupt input can surface bad bytes but never a bad
// store.
func DecodeAll(r io.Reader) (recs []Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("corpus: panic decoding segment: %v", p)
		}
	}()
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("corpus: segment header: %w", err)
	}
	if string(hdr) != segMagic {
		return nil, fmt.Errorf("corpus: bad segment magic %q", hdr)
	}
	var frame [8]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return recs, fmt.Errorf("corpus: torn frame header: %w", err)
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		want := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > maxRecordBytes {
			return recs, fmt.Errorf("corpus: bad frame length %d", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, fmt.Errorf("corpus: torn frame payload: %w", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			return recs, fmt.Errorf("corpus: frame CRC mismatch: got %08x want %08x", got, want)
		}
		var dr diskRec
		if err := json.Unmarshal(payload, &dr); err != nil {
			return recs, fmt.Errorf("corpus: frame JSON: %w", err)
		}
		if err := validateRecord(dr.K, dr.E); err != nil {
			return recs, err
		}
		recs = append(recs, Record{Key: dr.K, Entry: dr.E})
	}
}

// validateRecord rejects records whose contents could corrupt the store or
// crash replay: the framing guarantees the bytes arrived intact, this
// guarantees they are meaningful.
func validateRecord(key string, e *Entry) error {
	if key == "" || !strings.Contains(key, "|") {
		return fmt.Errorf("corpus: record key %q is not a block|config pair", key)
	}
	if e == nil {
		return fmt.Errorf("corpus: record %q has no entry", key)
	}
	if e.Examined < 0 || e.Pruned < 0 {
		return fmt.Errorf("corpus: record %q has negative effort counters", key)
	}
	for i := range e.Candidates {
		c := &e.Candidates[i]
		if len(c.Members) == 0 {
			return fmt.Errorf("corpus: record %q candidate %d has no members", key, i)
		}
		prev := -1
		for _, m := range c.Members {
			if m <= prev {
				return fmt.Errorf("corpus: record %q candidate %d members not strictly ascending", key, i)
			}
			prev = m
		}
		if c.Inputs < 0 || c.Inputs > 1024 || c.Outputs < 0 || c.Outputs > 1024 {
			return fmt.Errorf("corpus: record %q candidate %d has implausible port counts", key, i)
		}
		area, lat := c.Area(), c.Latency()
		if math.IsNaN(area) || math.IsInf(area, 0) || area < 0 ||
			math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
			return fmt.Errorf("corpus: record %q candidate %d has non-finite costs", key, i)
		}
	}
	return nil
}

// append frames and persists one record, rotating the segment when it
// outgrows maxSegmentBytes. Injected faults and I/O errors are returned
// for counting; the in-memory tier is unaffected either way.
func (d *diskStore) append(key string, e *Entry) error {
	if err := fireContained("append"); err != nil {
		return err
	}
	if d.f == nil {
		path := filepath.Join(d.dir, segName(d.nextIdx))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return err
		}
		d.f = f
		d.fBytes = int64(len(segMagic))
		d.bytes += int64(len(segMagic))
		d.segments++
		d.nextIdx++
	}
	payload, err := json.Marshal(diskRec{K: key, E: e})
	if err != nil {
		return err
	}
	frame := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	if _, err := d.f.Write(frame); err != nil {
		return err
	}
	d.fBytes += int64(len(frame))
	d.bytes += int64(len(frame))
	if d.fBytes >= maxSegmentBytes {
		err := d.f.Close()
		d.f = nil
		return err
	}
	return nil
}

// appendFrame appends one record frame to dst: the payload's length and
// CRC32, little-endian, then the payload itself.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func (d *diskStore) close() error {
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
}

// fireContained triggers the "corpus" faultinject site with panic
// containment: an injected panic at the disk boundary becomes an error, so
// the store degrades to memory-only instead of crashing the explorer.
func fireContained(key string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("corpus: injected panic: %v", p)
		}
	}()
	return faultinject.Fire("corpus", key)
}
