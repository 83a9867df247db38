package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"krcore/internal/dataset"
	"krcore/internal/similarity"
)

// TestNodesClampedToMaxNodes: a limited search must report at most
// MaxNodes accounted nodes (the pre-fix budget counted the refusing
// step, reporting MaxNodes+1).
func TestNodesClampedToMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 18)
		for _, maxNodes := range []int64{1, 7, 50} {
			res, err := Enumerate(inst.g, inst.p, EnumOptions{Limits: Limits{MaxNodes: maxNodes}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes > maxNodes {
				t.Fatalf("trial %d: Enumerate Nodes=%d exceeds MaxNodes=%d", trial, res.Nodes, maxNodes)
			}
			mres, err := FindMaximum(inst.g, inst.p, MaxOptions{Limits: Limits{MaxNodes: maxNodes}})
			if err != nil {
				t.Fatal(err)
			}
			if mres.Nodes > maxNodes {
				t.Fatalf("trial %d: FindMaximum Nodes=%d exceeds MaxNodes=%d", trial, mres.Nodes, maxNodes)
			}
		}
	}
}

// TestParallelSharedNodeLimit: with Parallelism=P the node cap is
// global, not per worker — a regression test for the bug where every
// worker got its own budget and MaxNodes was effectively multiplied by
// P (and an exhausted worker did not stop the others).
func TestParallelSharedNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 20)
		full, err := Enumerate(inst.g, inst.p, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Nodes < 8 {
			continue // too small for the limit to matter
		}
		maxNodes := full.Nodes / 2
		for _, workers := range []int{1, 2, 4, 8} {
			opt := EnumOptions{Parallelism: workers, Limits: Limits{MaxNodes: maxNodes}}
			res, err := Enumerate(inst.g, inst.p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes > maxNodes {
				t.Fatalf("trial %d (workers=%d): Nodes=%d exceeds global MaxNodes=%d",
					trial, workers, res.Nodes, maxNodes)
			}
			if !res.TimedOut {
				t.Fatalf("trial %d (workers=%d): expected TimedOut at MaxNodes=%d (full run: %d nodes)",
					trial, workers, maxNodes, full.Nodes)
			}
			mopt := MaxOptions{Parallelism: workers, Limits: Limits{MaxNodes: maxNodes}}
			mres, err := FindMaximum(inst.g, inst.p, mopt)
			if err != nil {
				t.Fatal(err)
			}
			if mres.Nodes > maxNodes {
				t.Fatalf("trial %d (workers=%d): FindMaximum Nodes=%d exceeds global MaxNodes=%d",
					trial, workers, mres.Nodes, maxNodes)
			}
		}
	}
}

// TestContextCancellation: a search started with a cancelled context
// does no work and reports TimedOut.
func TestContextCancellation(t *testing.T) {
	inst := figure1Instance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := Enumerate(inst.g, inst.p, EnumOptions{
			Parallelism: workers,
			Limits:      Limits{Context: ctx},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.TimedOut || res.Nodes != 0 || len(res.Cores) != 0 {
			t.Fatalf("workers=%d: cancelled enumerate ran anyway: %+v", workers, res)
		}
		mres, err := FindMaximum(inst.g, inst.p, MaxOptions{
			Parallelism: workers,
			Limits:      Limits{Context: ctx},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !mres.TimedOut || mres.Nodes != 0 || len(mres.Cores) != 0 {
			t.Fatalf("workers=%d: cancelled FindMaximum ran anyway: %+v", workers, mres)
		}
		cres, err := CliquePlus(inst.g, inst.p, CliqueOptions{
			Parallelism: workers,
			Limits:      Limits{Context: ctx},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cres.TimedOut || cres.Nodes != 0 {
			t.Fatalf("workers=%d: cancelled CliquePlus ran anyway: %+v", workers, cres)
		}
	}
}

// TestContextCancellationMidSearch: cancelling while workers are inside
// the search stops them (observed within budgetCheckInterval nodes per
// worker). The instance is made expensive enough that the search cannot
// finish before the cancellation lands.
func TestContextCancellationMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inst := hardInstance(rng)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() {
		res, err := Enumerate(inst.g, inst.p, EnumOptions{
			Parallelism: 2,
			Limits:      Limits{Context: ctx},
		})
		if err != nil {
			panic(err)
		}
		done <- res
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		// Either the search finished before the cancel (tiny instance)
		// or it was cut short; both are fine — the point is that it
		// returns promptly instead of running to completion.
		_ = res
	case <-time.After(30 * time.Second):
		t.Fatal("search did not observe cancellation")
	}
}

// hardInstance builds a dense random instance whose enumeration takes
// long enough for mid-search cancellation to land.
func hardInstance(rng *rand.Rand) testInstance {
	best := randomInstance(rng, 20)
	var bestNodes int64
	for i := 0; i < 12; i++ {
		inst := randomInstance(rng, 20)
		res, err := Enumerate(inst.g, inst.p, EnumOptions{})
		if err != nil {
			continue
		}
		if res.Nodes > bestNodes {
			bestNodes = res.Nodes
			best = inst
		}
	}
	return best
}

// TestParallelFindMaximumMatchesSerial: the parallel maximum search
// must return exactly the serial result — same core, not just the same
// size — thanks to the component-order tie-break on the shared
// incumbent.
func TestParallelFindMaximumMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 18)
		serial, err := FindMaximum(inst.g, inst.p, MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := FindMaximum(inst.g, inst.p, MaxOptions{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !sameCoreSets(par.Cores, serial.Cores) {
				t.Fatalf("trial %d (workers=%d): parallel %v != serial %v",
					trial, workers, par.Cores, serial.Cores)
			}
		}
	}
}

// TestParallelCliquePlusMatchesSerial: CliquePlus results are
// canonicalized, so worker interleaving must not change them.
func TestParallelCliquePlusMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 16)
		serial, err := CliquePlus(inst.g, inst.p, CliqueOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := CliquePlus(inst.g, inst.p, CliqueOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCoreSets(par.Cores, serial.Cores) {
			t.Fatalf("trial %d: parallel %v != serial %v", trial, par.Cores, serial.Cores)
		}
	}
}

// TestBudgetStepConcurrencyClamp hammers one budget from many
// goroutines and verifies the global cap and the clamped counter.
func TestBudgetStepConcurrencyClamp(t *testing.T) {
	const maxNodes = 1000
	bud := newBudget(Limits{MaxNodes: maxNodes})
	const workers = 8
	done := make(chan int64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var accepted int64
			for i := 0; i < maxNodes; i++ {
				if bud.step() {
					accepted++
				}
			}
			done <- accepted
		}()
	}
	var total int64
	for w := 0; w < workers; w++ {
		total += <-done
	}
	if total != maxNodes {
		t.Fatalf("accepted %d steps in total, want exactly %d", total, maxNodes)
	}
	if got := bud.count(); got != maxNodes {
		t.Fatalf("counter settled at %d, want %d", got, maxNodes)
	}
	if !bud.exhausted() {
		t.Fatal("budget should be exhausted")
	}
}

// TestPreparedReuse: one Prepared must serve repeated and concurrent
// searches with identical results. Eight goroutines search one Prepared
// at once — Enumerate, EnumerateContaining and FindMaximum, serially
// and on four workers — and each must get the serial run's cores and
// node count. Search states come from one process-wide pool, so here
// they pass between goroutines and between components of different
// sizes; the last instance, warm-read's brightkite k=5 setting, has 12
// components. FindMaximum on several workers is held to the serial
// core only: its node count depends on when the shared incumbent
// tightens (MaxOptions.Parallelism).
func TestPreparedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var insts []testInstance
	for trial := 0; trial < 20; trial++ {
		insts = append(insts, randomInstance(rng, 30))
	}
	d, err := dataset.Load("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.DefaultThreshold()
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, testInstance{g: d.Graph, p: Params{K: 5, Oracle: similarity.NewOracle(d.Metric(), r)}})
	for trial, inst := range insts {
		pr, err := Prepare(inst.g, inst.p)
		if err != nil {
			t.Fatal(err)
		}
		enum, err := Enumerate(inst.g, inst.p, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		anchor := int32(0)
		if len(enum.Cores) > 0 {
			anchor = enum.Cores[0][0]
		}
		containing, err := EnumerateContaining(inst.g, inst.p, anchor, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		maximum, err := FindMaximum(inst.g, inst.p, MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, par int, got *Result, err error, want *Result) {
			if err != nil {
				t.Errorf("trial %d %s (Parallelism %d): %v", trial, what, par, err)
				return
			}
			sameNodes := got.Nodes == want.Nodes || (what == "FindMaximum" && par > 1)
			if !sameCoreSets(got.Cores, want.Cores) || !sameNodes {
				t.Errorf("trial %d %s (Parallelism %d): %d nodes, cores %v; serial %d nodes, cores %v",
					trial, what, par, got.Nodes, got.Cores, want.Nodes, want.Cores)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					for _, par := range []int{1, 4} {
						res, err := pr.Enumerate(EnumOptions{Parallelism: par})
						check("Enumerate", par, res, err, enum)
						res, err = pr.EnumerateContaining(anchor, EnumOptions{Parallelism: par})
						check("EnumerateContaining", par, res, err, containing)
						res, err = pr.FindMaximum(MaxOptions{Parallelism: par})
						check("FindMaximum", par, res, err, maximum)
					}
				}
			}()
		}
		wg.Wait()
	}
}
