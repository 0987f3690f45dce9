package compile

import (
	"errors"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// ScheduleMemo remembers what Compile reads from each schedule — the
// length and the spilled-value count — per distinct (block content,
// machine description, register count). Compiles that share blocks then
// schedule each one once: every compile of a sweep reschedules the
// uncustomized program, a block no CFU matched is scheduled as both
// baseline and customized, and CFU sets that differ only in other blocks
// reschedule the same customized block.
//
// The key is ir.BlockHash, which covers everything the scheduler and the
// register allocator read (opcodes, operand wiring, live-out registers and
// a custom op's latency, result count and memory use), the machine
// description by value and the register count. An entry holds no block,
// schedule or register assignment, so a memo stays small, but it never
// evicts: give it the lifetime of one batch of related compiles, such as
// one experiment harness.
//
// A ScheduleMemo is safe for concurrent use and computes each key once: a
// caller that asks for a key another goroutine is computing waits for that
// result.
type ScheduleMemo struct {
	mu sync.Mutex
	m  map[scheduleKey]*scheduleCell
}

type scheduleKey struct {
	block string
	mach  machine.Desc
	regs  int
}

type scheduleCell struct {
	once            sync.Once
	length, spilled int
	err             error
}

// errSchedulePanicked is what later callers of a key see when the call
// computing it panicked.
var errSchedulePanicked = errors.New("compile: an earlier schedule of this block panicked")

// NewScheduleMemo returns an empty memo.
func NewScheduleMemo() *ScheduleMemo {
	return &ScheduleMemo{m: make(map[scheduleKey]*scheduleCell)}
}

// schedule returns the length and spilled-value count of
// sched.ScheduleWithRegAlloc(b, mach, regs). A nil memo schedules every
// call and records no counters; otherwise each call records
// memo.schedule.hit or memo.schedule.miss in tel.
func (sm *ScheduleMemo) schedule(b *ir.Block, mach *machine.Desc, regs int, tel *telemetry.Registry) (length, spilled int, err error) {
	if sm == nil {
		return scheduleBlock(b, mach, regs)
	}
	key := scheduleKey{ir.BlockHash(b), *mach, regs}
	sm.mu.Lock()
	c, hit := sm.m[key]
	if !hit {
		c = &scheduleCell{}
		sm.m[key] = c
	}
	sm.mu.Unlock()
	tel.AddHitMiss("memo.schedule", hit)
	c.once.Do(func() {
		c.err = errSchedulePanicked
		c.length, c.spilled, c.err = scheduleBlock(b, mach, regs)
	})
	return c.length, c.spilled, c.err
}

func scheduleBlock(b *ir.Block, mach *machine.Desc, regs int) (length, spilled int, err error) {
	s, stats, err := sched.ScheduleWithRegAlloc(b, mach, regs)
	if err != nil {
		return 0, 0, err
	}
	return s.Length, stats.SpilledValues, nil
}
