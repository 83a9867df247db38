package core

import (
	"math/bits"
	"sync"
	"time"

	"krcore/internal/clique"
	"krcore/internal/graph"
	"krcore/internal/simgraph"
	"krcore/internal/simindex"
)

// CliqueOptions configures the CliquePlus baseline.
type CliqueOptions struct {
	// Parallelism, when above 1, processes candidate components on that
	// many goroutines, sharing one global budget.
	Parallelism int
	// Limits bounds the clique enumeration (shared across workers).
	Limits Limits
}

// CliquePlus is the improved clique-based baseline of Section 3: compute
// the k-core of the dissimilar-edge-filtered graph, materialise the
// similarity graph of each connected component, enumerate its maximal
// cliques, and compute the k-core of the structural subgraph induced by
// each maximal clique. Connected survivors are (k,r)-cores; a final
// maximal filter removes contained results.
func CliquePlus(g *graph.Graph, p Params, opt CliqueOptions) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	bud := newBudget(opt.Limits)
	var all [][]int32
	if bud.precheck() {
		probs := prepare(g, p)
		var mu sync.Mutex
		searchOne := func(prob *problem) {
			// The similarity graph of the component, on local ids, built
			// in bulk through the oracle's similarity index.
			simG := simgraph.SimilarityGraphBulk(simindex.For(p.Oracle), prob.orig)
			clique.MaximalCliques(simG, func(q []int32) bool {
				if !bud.step() {
					return false
				}
				if len(q) < p.K+1 {
					return true
				}
				for _, r := range kcoreComponents(prob, q) {
					if len(r) >= p.K+1 {
						mu.Lock()
						all = append(all, prob.toGlobal(r))
						mu.Unlock()
					}
				}
				return true
			})
		}
		runPool(len(probs), opt.Parallelism, bud, func(i int) {
			searchOne(probs[i])
		})
	}
	all = filterMaximal(all)
	return &Result{
		Cores:    all,
		Nodes:    bud.count(),
		TimedOut: bud.exhausted(),
		Elapsed:  time.Since(start),
	}, nil
}

// kcoreComponents peels the structural subgraph induced by the local
// vertex set q down to its k-core and returns its connected components.
// It walks the adjacency rows against dense masks of the survivors and
// of the vertices a component has reached.
func kcoreComponents(p *problem, q []int32) [][]int32 {
	in := make([]uint64, rowWords(p.n))
	for _, v := range q {
		setBit(in, v)
	}
	// Degrees against the full set first; removals are marked only
	// afterwards, so the cascade decrements each edge exactly once.
	deg := make(map[int32]int32, len(q))
	for _, v := range q {
		deg[v] = andCount(p.adjOf(v), in)
	}
	var queue []int32
	for _, v := range q {
		if deg[v] < int32(p.k) {
			queue = append(queue, v)
			in[v>>6] &^= 1 << (v & 63)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range p.adjOf(v) {
			for x := e.W & in[e.I]; x != 0; x &= x - 1 {
				nb := e.I<<6 | int32(bits.TrailingZeros64(x))
				if deg[nb]--; deg[nb] < int32(p.k) {
					in[e.I] &^= x & -x
					queue = append(queue, nb)
				}
			}
		}
	}
	// Components of the survivors.
	var comps [][]int32
	seen := make([]uint64, len(in))
	for _, v := range q {
		if !hasBit(in, v) || hasBit(seen, v) {
			continue
		}
		comp := []int32{v}
		setBit(seen, v)
		stack := []int32{v}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range p.adjOf(u) {
				x := e.W & in[e.I] &^ seen[e.I]
				seen[e.I] |= x
				for ; x != 0; x &= x - 1 {
					nb := e.I<<6 | int32(bits.TrailingZeros64(x))
					comp = append(comp, nb)
					stack = append(stack, nb)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
