package cluster

import (
	"sync"
	"time"
)

// Bucket is a continuous-refill token bucket: Take spends one token when
// one is available. The clock is injectable so admission tests run without
// sleeping.
type Bucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64 // tokens per second
	last   time.Time
	now    func() time.Time
}

// NewBucket returns a full bucket refilling at rate tokens/second up to
// burst.
func NewBucket(rate, burst float64) *Bucket {
	b := &Bucket{tokens: burst, burst: burst, rate: rate, now: time.Now}
	b.last = b.now()
	return b
}

func (b *Bucket) refillLocked() {
	t := b.now()
	b.tokens = min(b.burst, b.tokens+b.rate*t.Sub(b.last).Seconds())
	b.last = t
}

// Take spends one token if available.
func (b *Bucket) Take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Eta estimates how long until a token will be available: the Retry-After
// hint on a shed response. Zero means a token is ready now.
func (b *Bucket) Eta() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// The admission buckets are generous: a cluster should not shed at the
// load it was sized for. A request is fully admitted (full deadline)
// while its class bucket, classRate tokens/second up to classBurst, has
// tokens. Past that it is admitted with a shrunken deadline from the
// shared degraded pool (degradedRate up to degradedBurst) before any
// shedding happens: anytime truncation is the cluster's pressure-relief
// valve, and 503 is the last resort.
const (
	classRate, classBurst       = 100, 200
	degradedRate, degradedBurst = 50, 100
)

// Decision is the admission controller's verdict on one request.
type Decision struct {
	// Admitted says the request may run; Degraded says it was admitted on
	// the overflow pool (or a borrowed lower-class bucket) and must run
	// with a shrunken deadline, surfacing overload as a Truncated
	// best-so-far result instead of an error.
	Admitted bool
	Degraded bool
	// RetryAfter is the client hint on a shed (not admitted) request.
	RetryAfter time.Duration
}

// Admission is the router's token-bucket admission controller. The
// shedding order under sustained overload is fixed by construction:
// every class degrades (shrinks deadlines) before it sheds, and gold
// borrows silver's and bronze's tokens after the shared pool runs dry —
// so bronze is rejected first and gold last.
type Admission struct {
	class    map[SLO]*Bucket
	degraded *Bucket
}

// NewAdmission builds the controller with full buckets.
func NewAdmission() *Admission {
	return &Admission{
		class: map[SLO]*Bucket{
			Gold:   NewBucket(classRate, classBurst),
			Silver: NewBucket(classRate, classBurst),
			Bronze: NewBucket(classRate, classBurst),
		},
		degraded: NewBucket(degradedRate, degradedBurst),
	}
}

// Admit decides one request's fate: full admission from its class bucket,
// degraded admission from the shared pool, then — above bronze — degraded
// admission borrowed from every strictly lower class's bucket, and only
// then shed with a Retry-After hint.
func (a *Admission) Admit(class SLO) Decision {
	if a.class[class].Take() {
		return Decision{Admitted: true}
	}
	if a.degraded.Take() {
		return Decision{Admitted: true, Degraded: true}
	}
	// Borrowing lowest class first drains bronze's capacity before
	// silver's, preserving the shed order even among borrowers.
	for lower := Bronze; lower < class; lower++ {
		if a.class[lower].Take() {
			return Decision{Admitted: true, Degraded: true}
		}
	}
	return Decision{RetryAfter: a.retryAfter(class)}
}

// retryAfter hints when this class will next have a token: the soonest
// ETA across every bucket the class may draw from, floored at 1s —
// sub-second hints just synchronize the retry stampede.
func (a *Admission) retryAfter(class SLO) time.Duration {
	eta := a.class[class].Eta()
	if d := a.degraded.Eta(); d < eta {
		eta = d
	}
	for lower := Bronze; lower < class; lower++ {
		if d := a.class[lower].Eta(); d < eta {
			eta = d
		}
	}
	return max(eta, time.Second)
}
