package core

import (
	"sync"
	"sync/atomic"
	"time"

	"krcore/internal/graph"
)

// FindMaximum returns the maximum (k,r)-core of g (Algorithm 5). With
// default options it is AdvMax (the (k,k')-core bound plus the λΔ1−Δ2
// order with adaptive branching); BoundNaive reproduces BasicMax.
// Result.Cores is empty when no (k,r)-core exists, otherwise it holds
// exactly one core.
func FindMaximum(g *graph.Graph, p Params, opt MaxOptions) (*Result, error) {
	start := time.Now()
	pr, err := Prepare(g, p)
	if err != nil {
		return nil, err
	}
	res, err := pr.FindMaximum(opt)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start) // include preparation time
	return res, nil
}

// FindMaximum runs the maximum search over the prepared candidate
// components, serially or on a worker pool (MaxOptions.Parallelism).
// All workers share one budget and one incumbent: the incumbent size is
// read atomically at every search node, so a large core found in one
// component immediately tightens the (k,k')-core size bound in every
// other component. Safe for concurrent use against one Prepared.
func (pr *Prepared) FindMaximum(opt MaxOptions) (*Result, error) {
	if opt.Order == OrderDefault {
		opt.Order = OrderLambdaDelta // Section 7.2
	}
	if opt.Bound == BoundDefault {
		opt.Bound = BoundDoubleKcore // Section 6.2
	}
	start := time.Now()
	bud := newBudget(opt.Limits)
	inc := &incumbent{}
	probs := pr.byDeg
	if bud.precheck() {
		runPool(len(probs), opt.Parallelism, bud, func(i int) {
			searchMaxComponent(probs[i], i, opt, bud, inc)
		})
	}
	res := &Result{Nodes: bud.count(), TimedOut: bud.exhausted(), Elapsed: time.Since(start)}
	if best := inc.snapshot(); best != nil {
		res.Cores = [][]int32{best}
	}
	return res, nil
}

// searchMaxComponent runs Algorithm 5 on the component with serial
// order index comp.
func searchMaxComponent(prob *problem, comp int, opt MaxOptions, bud *budget, inc *incumbent) {
	if len(prob.orig) <= inc.threshold(comp) {
		return // the whole component cannot improve on the incumbent
	}
	ms := &maxSearch{st: newState(prob, bud), opt: opt, inc: inc, comp: comp}
	defer ms.st.release()
	ms.node(0)
}

// incumbent is the best core found so far, shared by every worker of
// one maximum search. The (size, component) pair is packed into one
// atomic word so the hot pruning path (threshold) is a single load; the
// core itself is guarded by the mutex.
//
// Ties between equal-sized cores from different components are broken
// towards the smaller serial component index, which makes the reported
// core of a completed (non-TimedOut) run identical to a serial run's
// whatever the worker interleaving: the serial search keeps the first
// strictly-larger core in component order, i.e. the equal-size core
// from the earliest component. Truncated runs stop at interleaving-
// dependent frontiers and may report different partial incumbents.
type incumbent struct {
	// packed holds size<<32 | comp. Zero means empty (a real core has
	// at least k+1 >= 2 vertices, so size 0 cannot be confused with an
	// installed core).
	packed atomic.Uint64

	mu   sync.Mutex
	core []int32 // global vertex ids
}

// threshold returns the prune threshold for the component with the
// given serial order index: subtrees (and whole components) that cannot
// contain a core strictly larger than the threshold may be abandoned.
// An equal-sized core still matters when the incumbent came from a
// later component — the earlier component wins the tie — hence the
// threshold drops by one in that case.
func (inc *incumbent) threshold(comp int) int {
	p := inc.packed.Load()
	if p == 0 {
		return 0
	}
	size, from := int(p>>32), int(uint32(p))
	if from > comp {
		return size - 1
	}
	return size
}

// offer installs core (global ids, at least k+1 of them) found by the
// component with serial order index comp when it beats the incumbent:
// strictly larger, or equal-sized from an earlier component.
func (inc *incumbent) offer(core []int32, comp int) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	p := inc.packed.Load()
	size, from := int(p>>32), int(uint32(p))
	if p != 0 && (len(core) < size || (len(core) == size && comp >= from)) {
		return
	}
	inc.core = append(inc.core[:0], core...)
	inc.packed.Store(uint64(len(core))<<32 | uint64(uint32(comp)))
}

// snapshot returns a copy of the incumbent core, nil when none exists.
func (inc *incumbent) snapshot() []int32 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if len(inc.core) == 0 {
		return nil
	}
	return append([]int32(nil), inc.core...)
}

// maxSearch runs Algorithm 5 on one component.
type maxSearch struct {
	st   *state
	opt  MaxOptions
	inc  *incumbent // shared incumbent ((k,k')-core bound prunes globally)
	comp int        // serial order index of this component
}

// node is one search-tree node of Algorithm 5, reached by the
// transitions after trail mark from.
func (m *maxSearch) node(from int) {
	s := m.st
	if !s.bud.step() {
		return
	}
	if !s.prune(true, from) {
		return
	}
	if s.cntM+s.cntC == 0 {
		return
	}
	if !m.opt.DisableEarlyTermination && s.earlyTerminate() {
		return
	}
	if !s.boundExceeds(m.opt.Bound, m.inc.threshold(m.comp)) {
		return
	}
	if s.sumDpC == 0 { // C = SF(C): M∪C is a (k,r)-core (Theorem 4)
		m.reportLeaf()
		return
	}

	order := m.opt.Order
	ch, ok := s.chooseVertex(order, m.opt.Lambda, true, true)
	if !ok {
		return
	}
	expandFirst := true
	switch m.opt.Branch {
	case BranchAdaptive:
		expandFirst = ch.expandFirst
	case BranchExpandFirst:
		expandFirst = true
	case BranchShrinkFirst:
		expandFirst = false
	}

	mk := s.mark()
	runExpand := func() {
		s.expand(ch.v)
		m.node(mk)
		s.rewind(mk)
	}
	runShrink := func() {
		s.discard(ch.v)
		m.node(mk)
		s.rewind(mk)
	}
	if expandFirst {
		runExpand()
		if s.bud.exhausted() {
			return
		}
		runShrink()
	} else {
		runShrink()
		if s.bud.exhausted() {
			return
		}
		runExpand()
	}
}

func (m *maxSearch) reportLeaf() {
	s := m.st
	s.leafCores()
	start := int32(0)
	for _, end := range s.leafEnd {
		r := s.leaf[start:end]
		start = end
		if len(r) >= s.p.k+1 && len(r) > m.inc.threshold(m.comp) {
			m.inc.offer(s.p.toGlobal(r), m.comp)
		}
	}
}
