package loadgen

import (
	"fmt"
	"math/rand"
	"time"
)

// ArrivalPoisson names the one arrival process: memoryless traffic,
// exponential gaps, CV 1.
const ArrivalPoisson = "poisson"

// Poisson is an open-loop arrival clock: Next returns the exponentially
// distributed gap before the next request. It is deterministic given its
// seeded rng, so a load run is reproducible, and not safe for concurrent
// use.
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewArrivals builds the Poisson process at rate requests/second. kind
// must be ArrivalPoisson or "" and shape must be 0: no other process
// exists. The rng must be dedicated to this process.
func NewArrivals(kind string, rate, shape float64, rng *rand.Rand) (*Poisson, error) {
	if kind != ArrivalPoisson && kind != "" {
		return nil, fmt.Errorf("unknown arrival process %q (want %q)", kind, ArrivalPoisson)
	}
	if shape != 0 {
		return nil, fmt.Errorf("arrival shape %g given, but %s arrivals take none", shape, ArrivalPoisson)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("arrival rate %g must be positive", rate)
	}
	return &Poisson{rate: rate, rng: rng}, nil
}

// Next returns the gap before the next arrival.
func (p *Poisson) Next() time.Duration {
	return time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
}
