package core

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentQueries runs a mix of query types from several goroutines
// over shared indexes: the buffer pool, the Con-Index caches, and the
// probe must be race-free and every result must match the serial answer.
func TestConcurrentQueries(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)

	serial, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	serialES, err := oneShot(bg, e.PlanReachES, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	serialRev, err := oneShot(bg, e.PlanReverse, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (g + i) % 3 {
				case 0:
					res, err := oneShot(bg, e.PlanReach, q, 0.2)
					if err != nil {
						errs <- err
						return
					}
					if len(res.Segments) != len(serial.Segments) {
						t.Errorf("concurrent SQMB returned %d segments, serial %d",
							len(res.Segments), len(serial.Segments))
						return
					}
				case 1:
					res, err := oneShot(bg, e.PlanReachES, q, 0.2)
					if err != nil {
						errs <- err
						return
					}
					if len(res.Segments) != len(serialES.Segments) {
						t.Errorf("concurrent ES returned %d segments, serial %d",
							len(res.Segments), len(serialES.Segments))
						return
					}
				default:
					res, err := oneShot(bg, e.PlanReverse, q, 0.2)
					if err != nil {
						errs <- err
						return
					}
					if len(res.Segments) != len(serialRev.Segments) {
						t.Errorf("concurrent reverse returned %d segments, serial %d",
							len(res.Segments), len(serialRev.Segments))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentMixedStartTimes exercises the Con-Index lazy
// materialisation under concurrent cache misses for different slots.
func TestConcurrentMixedStartTimes(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := baseQuery(f)
			q.Start = time.Duration(6+g*2) * time.Hour
			if _, err := oneShot(bg, e.PlanReach, q, 0.2); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}
