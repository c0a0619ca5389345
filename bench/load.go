package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one timed operation of a load run.
type op struct {
	Index   int
	Latency time.Duration // closed loop: call to return; open loop: due time to return
	Lag     time.Duration // open loop: how long after its due time the request was sent
	Err     error
}

// load is what one timed phase produced.
type load struct {
	Ops     []op
	Elapsed time.Duration
}

// latencies returns the latencies of the operations that succeeded.
func (l load) latencies() durs {
	out := make(durs, 0, len(l.Ops))
	for _, o := range l.Ops {
		if o.Err == nil {
			out = append(out, o.Latency)
		}
	}
	return out
}

func (l load) lags() durs {
	out := make(durs, len(l.Ops))
	for i, o := range l.Ops {
		out[i] = o.Lag
	}
	return out
}

func (l load) errors() int {
	n := 0
	for _, o := range l.Ops {
		if o.Err != nil {
			n++
		}
	}
	return n
}

// runClosed drives a closed loop: each of clients goroutines issues
// do(i) for the next unclaimed i as soon as its previous call returns,
// until window has passed or limit operations have been claimed. A slow
// system therefore receives less load; that is the behaviour of callers
// that wait for their reply.
func runClosed(clients int, window time.Duration, limit int, do func(i int) error) load {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		per  = make([][]op, clients)
	)
	began := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(began) < window {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				t0 := time.Now()
				err := do(i)
				per[c] = append(per[c], op{Index: i, Latency: time.Since(t0), Err: err})
			}
		}(c)
	}
	wg.Wait()
	out := load{Elapsed: time.Since(began)}
	for _, ops := range per {
		out.Ops = append(out.Ops, ops...)
	}
	return out
}

// runOpen drives an open loop: request i is due at began+dues[i]
// whatever happened to the requests before it, and at most workers
// requests are in flight. Latency runs from the
// due time, so a stall charges the requests queued behind it with the
// wait it imposed; Lag records how late each one was sent.
func runOpen(dues []time.Duration, workers int, do func(i int) error) load {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		per  = make([][]op, workers)
	)
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dues) {
					return
				}
				due := began.Add(dues[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := do(i)
				per[w] = append(per[w], op{Index: i, Latency: time.Since(due), Lag: sent.Sub(due), Err: err})
			}
		}(w)
	}
	wg.Wait()
	out := load{Elapsed: time.Since(began)}
	for _, ops := range per {
		out.Ops = append(out.Ops, ops...)
	}
	return out
}
