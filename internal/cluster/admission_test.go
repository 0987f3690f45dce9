package cluster

import (
	"testing"
	"time"
)

// newTestAdmission builds a controller with tiny buckets on a fake clock
// so tests can drain and refill capacity deterministically.
func newTestAdmission(clk *fakeClock, class, degraded float64) *Admission {
	a := &Admission{
		class: map[SLO]*Bucket{
			Gold:   NewBucket(1, class),
			Silver: NewBucket(1, class),
			Bronze: NewBucket(1, class),
		},
		degraded: NewBucket(1, degraded),
	}
	for _, b := range a.class {
		b.now = clk.now
		b.last = clk.now()
	}
	a.degraded.now = clk.now
	a.degraded.last = clk.now()
	return a
}

func TestAdmissionFullThenDegradedThenShed(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 2, 1)

	// Two full admissions from the bronze bucket.
	for i := 0; i < 2; i++ {
		d := a.Admit(Bronze)
		if !d.Admitted || d.Degraded {
			t.Fatalf("admission %d = %+v, want full admit", i, d)
		}
	}
	// Bucket empty: the third request degrades (shrunken deadline) from
	// the shared pool — shedding by truncation before shedding by 503.
	if d := a.Admit(Bronze); !d.Admitted || !d.Degraded {
		t.Fatalf("over-bucket admission = %+v, want degraded admit", d)
	}
	// Shared pool empty too: bronze borrows from nobody, so it sheds.
	d := a.Admit(Bronze)
	if d.Admitted {
		t.Fatalf("admission with all buckets dry = %+v, want shed", d)
	}
	if d.RetryAfter < time.Second {
		t.Fatalf("shed Retry-After = %v, want >= 1s", d.RetryAfter)
	}
}

// Gold must outlive bronze under overload: after the shared pool dries
// up, gold borrows the lower classes' tokens, so bronze rejects first and
// gold last.
func TestGoldBorrowsBeforeShedding(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 1, 1)

	// Drain gold's own bucket and the shared pool.
	if d := a.Admit(Gold); !d.Admitted || d.Degraded {
		t.Fatalf("first gold = %+v", d)
	}
	if d := a.Admit(Gold); !d.Admitted || !d.Degraded {
		t.Fatalf("second gold = %+v, want degraded via shared pool", d)
	}
	// Gold now borrows bronze's token, then silver's — both degraded.
	if d := a.Admit(Gold); !d.Admitted || !d.Degraded {
		t.Fatalf("third gold = %+v, want degraded via borrowed bronze", d)
	}
	if d := a.Admit(Gold); !d.Admitted || !d.Degraded {
		t.Fatalf("fourth gold = %+v, want degraded via borrowed silver", d)
	}
	// Everything is dry: even gold sheds now.
	if d := a.Admit(Gold); d.Admitted {
		t.Fatalf("fifth gold = %+v, want shed", d)
	}
	// Bronze was robbed: it sheds immediately while gold was still served.
	if d := a.Admit(Bronze); d.Admitted {
		t.Fatalf("bronze after gold borrowing = %+v, want shed", d)
	}
}

func TestBucketRefills(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(10, 2) // 10 tokens/s, depth 2
	b.now = clk.now
	b.last = clk.now()
	if !b.Take() || !b.Take() {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take() {
		t.Fatal("empty bucket granted a token")
	}
	clk.advance(100 * time.Millisecond) // one token refilled
	if !b.Take() {
		t.Fatal("bucket did not refill at its rate")
	}
	if b.Take() {
		t.Fatal("bucket refilled beyond its rate")
	}
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if !b.Take() {
			t.Fatalf("bucket refilled only %d tokens after an hour, burst is 2", i)
		}
	}
	if b.Take() {
		t.Fatal("bucket refilled past its burst depth")
	}
}

func TestBucketEta(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(2, 1) // 2 tokens/s
	b.now = clk.now
	b.last = clk.now()
	if eta := b.Eta(); eta != 0 {
		t.Fatalf("full bucket Eta = %v, want 0", eta)
	}
	b.Take()
	eta := b.Eta()
	if eta <= 0 || eta > 500*time.Millisecond {
		t.Fatalf("empty bucket Eta = %v, want ~500ms", eta)
	}
}
