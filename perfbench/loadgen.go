package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is the kind of one generated request.
type opKind uint8

const (
	opEnumerate opKind = iota
	opContaining
	opMaximum
	opWrite
	numKinds
)

var kindNames = [numKinds]string{"enumerate", "containing", "maximum", "write"}

// op is one request of a generated workload.
type op struct {
	at   time.Duration // scheduled send time, from the phase start
	kind opKind
	set  int   // index of the hot setting a read queries
	v    int32 // query vertex of a containing read
	seq  int   // position of a write in the update stream
}

// readMix draws reads: 40% enumerate, 40% enumerate-containing and 20%
// maximum, each at a uniformly drawn hot setting. A containing read's
// vertex comes from that setting's cores nine times in ten and from
// the whole graph otherwise.
type readMix struct {
	rng   *rand.Rand
	cores [][]int32 // per hot setting: the vertices of its cores
	n     int       // graph vertex count
}

func (m *readMix) next() op {
	o := op{set: m.rng.Intn(len(m.cores))}
	switch roll := m.rng.Intn(10); {
	case roll < 4:
		o.kind = opEnumerate
	case roll < 8:
		o.kind = opContaining
		if pool := m.cores[o.set]; len(pool) > 0 && m.rng.Intn(10) != 0 {
			o.v = pool[m.rng.Intn(len(pool))]
		} else {
			o.v = int32(m.rng.Intn(m.n))
		}
	default:
		o.kind = opMaximum
	}
	return o
}

// poissonTimes returns the arrival times in [0, d) of a Poisson process
// with the given rate per second.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// readSchedule builds an open-loop read schedule over d: Poisson
// arrivals at rate per second, each read drawn from mix.
func readSchedule(rng *rand.Rand, mix *readMix, rate float64, d time.Duration) []op {
	var ops []op
	for _, at := range poissonTimes(rng, rate, d) {
		o := mix.next()
		o.at = at
		ops = append(ops, o)
	}
	return ops
}

// writeSchedule builds an open-loop write schedule over d: Poisson
// arrivals at rate per second, taking consecutive stream positions from
// firstSeq on. It draws only on its own rng, so a workload that adds
// writes keeps the same read schedule.
func writeSchedule(rng *rand.Rand, rate float64, d time.Duration, firstSeq int) []op {
	var ops []op
	for i, at := range poissonTimes(rng, rate, d) {
		ops = append(ops, op{at: at, kind: opWrite, seq: firstSeq + i})
	}
	return ops
}

// clock is the time source of the executor; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// outcome is what one executed request produced.
type outcome struct {
	done bool          // the request was sent
	lat  time.Duration // completion minus scheduled send time
	svc  time.Duration // completion minus actual send time
	lag  time.Duration // how much later than it could have the request left
	err  error
}

// openLoop sends every op at start+op.at from `workers` senders, each
// taking the next op in schedule order, so at most `workers` requests
// are in flight. A request's latency runs from its scheduled send time:
// when every sender is busy the next request waits, and that wait —
// the delay a stalled request imposes on those queued behind it — is
// part of its latency. lag is how late a request left after both its
// scheduled time and a free sender were there.
func openLoop(clk clock, start time.Time, ops []op, workers int, do func(i int) error) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].at)
				clk.SleepUntil(due)
				sent := clk.Now()
				err := do(i)
				end := clk.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				out[i] = outcome{done: true, lat: end.Sub(due), svc: end.Sub(sent), lag: sent.Sub(ready), err: err}
				free = end
			}
		}()
	}
	wg.Wait()
	return out
}
