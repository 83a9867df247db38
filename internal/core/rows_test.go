package core

import (
	"math/rand"
	"testing"

	"krcore/internal/dataset"
	"krcore/internal/similarity"
)

// TestRowKernelsMatchLists walks search trees the way
// TestStateInvariantsDuringSearch does and, at every node, runs the row
// and list kernels side by side: the Δ simulation of both branches of
// every candidate, the (k,k')-core peel with and without its
// cascade, and the Δ orders' whole choice. Rows are built on every
// component, whichever kernel useRows picks, so both run everywhere.
// The random instances have 10–300 vertices, so their rows span one to
// five words; the presets add the components the serving paths search.
func TestRowKernelsMatchLists(t *testing.T) {
	var probs []*problem
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(291)
		inst := geoInstanceOfSize(rng, n)
		if trial%2 == 1 {
			inst = keywordInstanceOfSize(rng, n)
		}
		probs = append(probs, prepare(inst.g, inst.p)...)
	}
	widths := map[int]bool{}
	for _, prob := range probs {
		widths[rowWords(prob.n)] = true
	}
	for w := 1; w <= 5; w++ {
		if !widths[w] {
			t.Fatalf("no random component has rows %d words wide", w)
		}
	}
	for _, preset := range []string{"brightkite", "gowalla", "dblp", "pokec"} {
		d, err := dataset.Load(preset)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.DefaultThreshold()
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, prepare(d.Graph, Params{K: 5, Oracle: similarity.NewOracle(d.Metric(), r)})...)
	}

	for i, prob := range probs {
		st := newState(prob, &budget{})
		if st.words == 0 {
			st.buildRows()
		}
		nodes := 0
		var walk func(depth int)
		walk = func(depth int) {
			if depth > 5 || nodes >= 40 || !st.prune(true) {
				return
			}
			nodes++
			if err := st.checkInvariants(); err != nil {
				t.Fatalf("component %d after prune: %v", i, err)
			}
			compareKernels(t, i, st)
			ch, ok := st.chooseVertex(OrderDelta1ThenDelta2, 5, true, false)
			if !ok {
				return
			}
			m := st.mark()
			st.expand(ch.v)
			walk(depth + 1)
			st.rewind(m)
			m = st.mark()
			st.discard(ch.v)
			walk(depth + 1)
			st.rewind(m)
			if err := st.checkInvariants(); err != nil {
				t.Fatalf("component %d after rewind: %v", i, err)
			}
		}
		walk(0)
		st.release()
	}
}

// compareKernels fails t unless st's row and list kernels agree at the
// current node.
func compareKernels(t *testing.T, comp int, st *state) {
	t.Helper()
	for v := int32(0); v < int32(st.p.n); v++ {
		if !st.eligible(v, false) { // every candidate, a superset of the eligible ones
			continue
		}
		for _, expand := range []bool{true, false} {
			if rows, lists := st.simulateRows(v, expand), st.simulateLists(v, expand); rows != lists {
				t.Fatalf("component %d, v=%d, expand=%t: rows simulate %+v, lists %+v", comp, v, expand, rows, lists)
			}
		}
	}
	for _, structural := range []bool{true, false} {
		if rows, lists := st.peelRows(structural), st.peelLists(structural); rows != lists {
			t.Fatalf("component %d, structural=%t: rows bound %d, lists %d", comp, structural, rows, lists)
		}
	}
	// The list kernels run whenever words is 0.
	for _, forMaximum := range []bool{false, true} {
		order := OrderDelta1ThenDelta2
		if forMaximum {
			order = OrderLambdaDelta
		}
		rows, okRows := st.chooseVertex(order, 5, true, forMaximum)
		w := st.words
		st.words = 0
		lists, okLists := st.chooseVertex(order, 5, true, forMaximum)
		st.words = w
		if rows != lists || okRows != okLists {
			t.Fatalf("component %d, %v: rows choose %+v, lists %+v", comp, order, rows, lists)
		}
	}
}
