package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// bruteKPrimeMax computes the exact largest k' such that a (k,k')-core
// exists on the problem's full vertex set (Definition 6): the maximum
// over subsets U with structural min-degree >= k of the minimum
// similarity degree inside U, judged on the problem's lists l.
// Exponential; n <= 16.
func bruteKPrimeMax(p *problem, l *problemLists) int {
	n := p.n
	best := -1
	isDissim := func(a, b int32) bool {
		for _, d := range l.dissim[a] {
			if d == b {
				return true
			}
		}
		return false
	}
	for mask := 1; mask < 1<<uint(n); mask++ {
		size := bits.OnesCount(uint(mask))
		okStruct := true
		minSim := size // upper start
		for u := int32(0); u < int32(n) && okStruct; u++ {
			if mask&(1<<uint(u)) == 0 {
				continue
			}
			deg := 0
			for _, nb := range l.adj[u] {
				if mask&(1<<uint(nb)) != 0 {
					deg++
				}
			}
			if deg < p.k {
				okStruct = false
				break
			}
			sim := 0
			for v := int32(0); v < int32(n); v++ {
				if v != u && mask&(1<<uint(v)) != 0 && !isDissim(u, v) {
					sim++
				}
			}
			if sim < minSim {
				minSim = sim
			}
		}
		if okStruct && minSim > best {
			best = minSim
		}
	}
	return best
}

// bound is the exact value of the kind's bound, which the search only
// compares with a threshold (boundExceeds).
func (s *state) bound(kind Bound) int {
	size := s.cntM + s.cntC
	switch kind {
	case BoundColor:
		return s.colorCount(size)
	case BoundKcore:
		return s.simPeelBound(false, -1)
	case BoundColorKcore:
		return min(s.colorCount(size), s.simPeelBound(false, -1))
	case BoundDoubleKcore, BoundDefault:
		return s.simPeelBound(true, -1)
	default:
		return size
	}
}

func rootState(prob *problem) *state {
	return newState(prob, &budget{})
}

func TestDoubleKcoreBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 200 && checked < 80; trial++ {
		inst := randomInstance(rng, 12)
		for _, prob := range prepare(inst.g, inst.p) {
			if prob.n > 14 {
				continue
			}
			checked++
			st := rootState(prob)
			l := oracleLists(inst.g, inst.p.Oracle, prob)
			got := st.bound(BoundDoubleKcore)
			want := bruteKPrimeMax(prob, l) + 1
			if got != want {
				t.Fatalf("trial %d: double-kcore bound = %d, want k'max+1 = %d (n=%d, k=%d, adj=%v, dissim=%v)",
					trial, got, want, prob.n, prob.k, l.adj, l.dissim)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no components exercised")
	}
}

func TestBoundsAreSoundUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []Bound{BoundNaive, BoundColor, BoundKcore, BoundColorKcore, BoundDoubleKcore}
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 12)
		probs := prepare(inst.g, inst.p)
		for _, prob := range probs {
			// The true maximum core within this component.
			best := 0
			res, err := FindMaximum(inst.g, inst.p, MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cores {
				// Only count cores fully inside this component.
				inComp := map[int32]bool{}
				for _, v := range prob.orig {
					inComp[v] = true
				}
				all := true
				for _, v := range c {
					if !inComp[v] {
						all = false
						break
					}
				}
				if all && len(c) > best {
					best = len(c)
				}
			}
			st := rootState(prob)
			for _, kind := range kinds {
				if b := st.bound(kind); b < best {
					t.Fatalf("trial %d: bound %v = %d < true maximum %d", trial, kind, b, best)
				}
			}
		}
	}
}

func TestBoundDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(rng, 14)
		for _, prob := range prepare(inst.g, inst.p) {
			st := rootState(prob)
			naive := st.bound(BoundNaive)
			col := st.bound(BoundColor)
			kc := st.bound(BoundKcore)
			ck := st.bound(BoundColorKcore)
			dk := st.bound(BoundDoubleKcore)
			if naive != prob.n {
				t.Fatalf("naive bound = %d, want |M|+|C| = %d", naive, prob.n)
			}
			if col > naive || kc > naive {
				t.Fatalf("colour/kcore bounds must not exceed naive: %d %d > %d", col, kc, naive)
			}
			if ck != min(col, kc) {
				t.Fatalf("color+kcore = %d, want min(%d,%d)", ck, col, kc)
			}
			// The (k,k')-core bound adds a structural constraint on top
			// of the J' peel, so it can only be tighter than the plain
			// k-core bound.
			if dk > kc {
				t.Fatalf("double-kcore bound %d exceeds kcore bound %d", dk, kc)
			}
		}
	}
}

func TestBoundsOnEmptyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomGeoInstance(rng, 10)
	probs := prepare(inst.g, inst.p)
	if len(probs) == 0 {
		t.Skip("instance has no candidate component")
	}
	st := rootState(probs[0])
	// Discard everything: all bounds must be 0 on an empty M∪C.
	for v := int32(0); v < int32(probs[0].n); v++ {
		st.apply(v, statusOut)
	}
	for _, kind := range []Bound{BoundNaive, BoundColor, BoundKcore, BoundColorKcore, BoundDoubleKcore} {
		if b := st.bound(kind); b != 0 {
			t.Fatalf("bound %v on empty state = %d, want 0", kind, b)
		}
	}
}

// boundKinds lists every Bound kind.
var boundKinds = []Bound{BoundDefault, BoundNaive, BoundColor, BoundKcore, BoundColorKcore, BoundDoubleKcore}

// checkBoundDecisions fails t unless, at st's node, boundExceeds(kind,
// thr) is bound(kind) > thr for every kind and every thr in
// [−1, |M∪C|+1].
func checkBoundDecisions(t *testing.T, what string, st *state) {
	t.Helper()
	size := st.cntM + st.cntC
	for _, kind := range boundKinds {
		exact := st.bound(kind)
		for thr := -1; thr <= size+1; thr++ {
			if got := st.boundExceeds(kind, thr); got != (exact > thr) {
				t.Fatalf("%s: bound %v is %d, but boundExceeds at thr=%d says %t (|M∪C| = %d)",
					what, kind, exact, thr, got, size)
			}
		}
	}
}

// TestBoundExceedsMatchesBound checks the search's bound decisions
// against the exact bounds at every node of the walks
// TestStateInvariantsDuringSearch makes: the same instances, retention
// on and off, six levels deep.
func TestBoundExceedsMatchesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nodes := 0
	for trial := 0; trial < 200; trial++ {
		inst := randomInstance(rng, 12)
		for _, prob := range prepare(inst.g, inst.p) {
			for _, retention := range []bool{true, false} {
				st := newState(prob, &budget{})
				var walk func(depth, m int)
				walk = func(depth, m int) {
					if depth > 6 || !st.prune(retention, m) {
						return
					}
					nodes++
					checkBoundDecisions(t, fmt.Sprintf("trial %d, retention %t, depth %d", trial, retention, depth), st)
					ch, ok := st.chooseVertex(OrderDegree, 5, retention, false)
					if !ok {
						return
					}
					m = st.mark()
					st.expand(ch.v)
					walk(depth+1, m)
					st.rewind(m)
					st.discard(ch.v)
					walk(depth+1, m)
					st.rewind(m)
				}
				walk(0, 0)
				st.release()
			}
		}
	}
	if nodes == 0 {
		t.Fatal("no search nodes checked")
	}
}
