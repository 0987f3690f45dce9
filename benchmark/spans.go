package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans stay in memory and are written out, when
// asked, after the run.
type span struct {
	ID int `json:"id"`
	// Parent is the enclosing span's ID; 0 means none.
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Request identifies the replayed input the span served.
	Request int `json:"request"`
}

// recorder collects spans for one serial replay. A nil *recorder records
// nothing, so the untraced replay runs the same code.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(r.origin)), Request: request,
	})
	return len(r.spans)
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNS = int64(time.Since(r.origin))
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent, request int, fn func()) {
	id := r.start(name, parent, request)
	fn()
	r.end(id)
}

func (r *recorder) writeJSON(path string) error {
	b, err := json.MarshalIndent(r.spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time in nanoseconds, keyed by ID: its
// duration minus the part of its interval that its children cover. Children
// may overlap each other or run past their parent; only the union of their
// intervals inside the parent's counts.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		cur, curEnd := int64(-1), int64(-1) // the merged interval being grown
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else {
				curEnd = max(curEnd, hi)
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}
