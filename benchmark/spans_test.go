package main

import "testing"

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name: "nested",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
				{ID: 3, Parent: 2, StartNS: 20, EndNS: 30},
			},
			want: map[int]int64{1: 70, 2: 20, 3: 10},
		},
		{
			name: "disjoint children",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 30, EndNS: 40},
				{ID: 3, Parent: 1, StartNS: 10, EndNS: 20},
			},
			want: map[int]int64{1: 80, 2: 10, 3: 10},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},
				{ID: 3, Parent: 1, StartNS: 30, EndNS: 70},
				{ID: 4, Parent: 1, StartNS: 35, EndNS: 45},
			},
			want: map[int]int64{1: 40, 2: 40, 3: 40, 4: 10},
		},
		{
			name: "child past its parent is clipped",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 90, EndNS: 150},
			},
			want: map[int]int64{1: 90, 2: 60},
		},
		{
			name:  "childless root is all self",
			spans: []span{{ID: 1, StartNS: 5, EndNS: 25}},
			want:  map[int]int64{1: 20},
		},
	} {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	ran := false
	r.do("x", 0, 1, func() { ran = true })
	if !ran {
		t.Fatal("a nil recorder must still run the function")
	}
	rec := newRecorder()
	root := rec.start("replay", 0, 1)
	rec.do("explore", root, 1, func() {})
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[0].EndNS < rec.spans[1].EndNS {
		t.Fatalf("spans = %+v, want a root enclosing one child", rec.spans)
	}
}
