package core

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"krcore/internal/graph"
)

// containsLocal reports whether the sorted-or-not local id slice holds v.
func containsLocal(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Enumerate returns the maximal (k,r)-cores of g. With default options
// it is the AdvEnum algorithm (Algorithm 3 + Theorems 2-6 + the
// Δ1-then-Δ2 order); the Disable* options reproduce BasicEnum, BE+CR and
// BE+CR+ET from the evaluation (Table 2, Figure 9).
func Enumerate(g *graph.Graph, p Params, opt EnumOptions) (*Result, error) {
	start := time.Now()
	pr, err := Prepare(g, p)
	if err != nil {
		return nil, err
	}
	res, err := pr.Enumerate(opt)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start) // include preparation time
	return res, nil
}

// Enumerate runs the maximal (k,r)-core enumeration over the prepared
// candidate components. Safe for concurrent use: the prepared state is
// read-only and every call owns its search state and budget.
func (pr *Prepared) Enumerate(opt EnumOptions) (*Result, error) {
	if opt.anchorPlus1 > 0 && int(opt.anchorPlus1-1) >= pr.n {
		return nil, fmt.Errorf("core: anchor vertex %d out of range [0,%d)", opt.anchorPlus1-1, pr.n)
	}
	if opt.Order == OrderDefault {
		opt.Order = OrderDelta1ThenDelta2 // Section 7.3
	}
	if opt.CheckOrder == OrderDefault {
		opt.CheckOrder = OrderDegree // Section 7.4
	}
	start := time.Now()
	probs := pr.probs
	if opt.anchorPlus1 > 0 {
		probs = filterAnchorComponent(probs, opt.anchorPlus1-1)
	}
	all, nodes, timedOut := runEnumeration(probs, opt)
	if opt.DisableMaximalCheck {
		all = filterMaximal(all)
	} else {
		all = dedupCores(canonicalize(all))
	}
	return &Result{
		Cores:    all,
		Nodes:    nodes,
		TimedOut: timedOut,
		Elapsed:  time.Since(start),
	}, nil
}

// EnumerateContaining runs the anchored enumeration (see the package
// function of the same name) over the prepared components.
func (pr *Prepared) EnumerateContaining(v int32, opt EnumOptions) (*Result, error) {
	if v < 0 || int(v) >= pr.n {
		return nil, fmt.Errorf("core: query vertex %d out of range [0,%d)", v, pr.n)
	}
	opt.anchorPlus1 = v + 1
	return pr.Enumerate(opt)
}

// EnumerateContaining returns the maximal (k,r)-cores that contain the
// query vertex v — the community-search flavour of the problem. Any
// maximal core containing v is also maximal among all cores, so the
// result equals the v-containing subset of Enumerate's output, computed
// by searching only v's candidate component with v pre-committed to M.
func EnumerateContaining(g *graph.Graph, p Params, v int32, opt EnumOptions) (*Result, error) {
	if v < 0 || int(v) >= g.N() {
		return nil, fmt.Errorf("core: query vertex %d out of range [0,%d)", v, g.N())
	}
	opt.anchorPlus1 = v + 1
	return Enumerate(g, p, opt)
}

// filterAnchorComponent keeps only the component containing the anchor.
func filterAnchorComponent(probs []*problem, anchor int32) []*problem {
	for _, prob := range probs {
		for _, v := range prob.orig {
			if v == anchor {
				return []*problem{prob}
			}
		}
	}
	return nil
}

// runEnumeration searches every candidate component, serially or on a
// worker pool, and returns the collected cores (global ids). All
// workers share one budget, so the limits are global: MaxNodes caps the
// total node count and the first exhausted worker stops the rest.
func runEnumeration(probs []*problem, opt EnumOptions) (all [][]int32, nodes int64, timedOut bool) {
	bud := newBudget(opt.Limits)
	if !bud.precheck() {
		return nil, 0, true
	}
	var mu sync.Mutex
	emit := func(c []int32) {
		mu.Lock()
		all = append(all, c)
		mu.Unlock()
	}
	runPool(len(probs), opt.Parallelism, bud, func(i int) {
		searchComponent(probs[i], opt, bud, emit)
	})
	return all, bud.count(), bud.exhausted()
}

// searchComponent runs one component's search, honouring the anchor and
// emitting cores as global-id slices.
func searchComponent(prob *problem, opt EnumOptions, bud *budget, emit func([]int32)) {
	e := &enumSearch{st: newState(prob, bud), opt: opt}
	defer e.st.release()
	if opt.anchorPlus1 > 0 {
		anchor := opt.anchorPlus1 - 1
		local := int32(-1)
		for i, v := range prob.orig {
			if v == anchor {
				local = int32(i)
				break
			}
		}
		if local < 0 {
			return
		}
		e.st.expand(local)
		e.anchor = local
	} else {
		e.anchor = -1
	}
	e.run(func(localCore []int32) {
		emit(prob.toGlobal(localCore))
	})
}

// enumSearch carries one component's enumeration.
type enumSearch struct {
	st  *state
	opt EnumOptions
	// emit receives each discovered core. Every value stored here is an
	// in-memory collector (runEnumeration's mutex-guarded append), which
	// never performs I/O.
	//
	// krlint:nonblocking
	emit   func([]int32)
	anchor int32 // pre-committed query vertex, -1 when unanchored
}

func (e *enumSearch) run(emit func([]int32)) {
	e.emit = emit
	e.node(0)
}

// node is one search-tree node of Algorithm 3 (or of the basic
// Algorithm 1 enumeration when retention is disabled), reached by the
// transitions after trail mark m. The caller is responsible for
// rewinding the state.
func (e *enumSearch) node(m int) {
	s := e.st
	if !s.bud.step() {
		return
	}
	retention := !e.opt.DisableRetention
	if !s.prune(retention, m) {
		return
	}
	if s.cntM+s.cntC == 0 {
		return
	}
	if !e.opt.DisableEarlyTermination && s.earlyTerminate() {
		return
	}
	// Size-constrained enumeration: no core larger than the
	// (k,k')-core bound can emerge from this subtree (Theorem 7).
	if e.opt.MinSize > 0 && !s.boundExceeds(BoundDoubleKcore, e.opt.MinSize-1) {
		return
	}

	// Leaf: C = SF(C), i.e. no dissimilar pair is left in C, so M∪C
	// satisfies both constraints (Theorem 4). Both the basic and the
	// advanced configurations stop here — without this rule the basic
	// enumeration would visit every single (k,r)-core as its own leaf,
	// which is hopeless on any realistic input. What candidate
	// retention adds on top (and what DisableRetention removes) is the
	// rule to never *branch* on a similarity-free candidate plus the
	// Remark 1 promotion.
	if s.sumDpC == 0 {
		e.reportLeaf()
		return
	}

	ch, ok := s.chooseVertex(e.opt.Order, e.opt.Lambda, retention, false)
	if !ok {
		// Retention leaves no eligible candidate only when sumDpC == 0,
		// which was handled above; without retention C is non-empty
		// here. Defensive: treat as a leaf.
		e.reportLeaf()
		return
	}

	// Expand branch.
	m = s.mark()
	s.expand(ch.v)
	e.node(m)
	s.rewind(m)
	if s.bud.exhausted() {
		return
	}
	// Shrink branch: the candidate joins the relevant excluded set
	// (it is similar to all of M, or it would have been pruned).
	s.discard(ch.v)
	e.node(m)
	s.rewind(m)
}

// reportLeaf extracts the (k,r)-cores at a leaf. With M non-empty, M∪C
// is a single connected core (connectivity pruning guarantees it). At
// the unique all-shrink leaf (M empty) each connected component of C is
// a core on its own. Each core is checked for maximality against the
// relevant excluded set E (Theorem 6) unless disabled.
func (e *enumSearch) reportLeaf() {
	s := e.st
	s.leafCores()
	start := int32(0)
	for _, end := range s.leafEnd {
		r := s.leaf[start:end]
		start = end
		if len(r) < s.p.k+1 || len(r) < e.opt.MinSize {
			continue
		}
		if e.anchor >= 0 && !containsLocal(r, e.anchor) {
			continue
		}
		if !e.opt.DisableMaximalCheck {
			if !s.checkMaximal(r, e.opt.CheckOrder, e.opt.Lambda) {
				continue
			}
		}
		e.emit(r)
		if s.bud.exhausted() {
			return
		}
	}
}

// earlyTerminate implements Theorem 5: the subtree cannot contain any
// maximal (k,r)-core when some excluded vertex (or excluded set) can
// extend every core derivable from (M, C).
//
// Condition (i): a vertex u ∈ SF_C(E) with deg(u, M) ≥ k extends any
// derived core (it is similar to all of M∪C and structurally supported
// by M alone). Condition (ii): a set U ⊆ SF_{C∪E}(E) where every u ∈ U
// has deg(u, M∪U) ≥ k. The eligible excluded vertices W are peeled to
// the greatest fixpoint of that test, and U is the survivors that M
// reaches (the extension must keep R∪U connected). The peel runs on
// one dense mask of M∪W, borrowed from peelH, so deg(v, M) +
// |adj(v) ∧ W| is one AND-popcount of v's row; it tests every vertex
// of W and again the neighbours in W of each vertex it removes, and the
// fixpoint does not depend on the order it removes them in.
func (s *state) earlyTerminate() bool {
	if s.cntE == 0 {
		return false
	}
	k := int32(s.p.k)
	mw := s.peelH
	copy(mw, s.maskM)
	queue := s.queue[:0] // W's vertices to test
	for v := nextBit(s.maskE, 0); v >= 0; v = nextBit(s.maskE, v+1) {
		if s.dpC(v) != 0 {
			continue
		}
		if s.degM(v) >= k {
			s.queue = queue[:0]
			return true
		}
		if s.dpE(v) == 0 {
			setBit(mw, v)
			queue = append(queue, v)
		}
	}
	if len(queue) == 0 {
		return false
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !hasBit(mw, v) || andCount(s.adjOf(v), mw) >= k {
			continue
		}
		mw[v>>6] &^= 1 << (v & 63)
		for _, e := range s.adjOf(v) {
			for x := e.W & mw[e.I] &^ s.maskM[e.I]; x != 0; x &= x - 1 {
				queue = append(queue, e.I<<6|int32(bits.TrailingZeros64(x)))
			}
		}
	}
	s.queue = queue[:0]
	// U is the survivors that a path inside M and the survivors joins to
	// M. A survivor's neighbours among the survivors are joined with it,
	// so each keeps its k neighbours in M∪U, and U qualifies whenever it
	// is not empty.
	reached := s.reached
	copy(reached, s.maskM)
	s.reach(reached, mw)
	for i, x := range reached {
		if x&^s.maskM[i] != 0 {
			return true
		}
	}
	return false
}
