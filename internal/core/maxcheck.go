package core

// Maximal checking (Theorem 6, Algorithm 4). A freshly found (k,r)-core
// R is maximal iff no non-empty subset U of the relevant excluded set E
// yields a (k,r)-core R∪U. The check explores subsets of the eligible
// excluded vertices with the short-sighted greedy orders of Section 7.4
// and stops at the first valid extension.
//
// Two observations keep the check polynomial except on genuinely hard
// instances:
//
//  1. Candidates that lose the structural closure (deg(v, T∪cand) < k)
//     or that cannot reach R inside T∪cand can never participate in an
//     extension (a connected R∪U needs a path from every u ∈ U to R).
//  2. Once the surviving candidate set has no dissimilar pair left,
//     T∪cand itself is an extension — no further branching is needed.
//     Branching therefore only happens on vertices involved in
//     dissimilar pairs, bounding the tree by the dissimilarity structure
//     rather than by |E|.

// checkMaximal reports whether the core with the given local vertex ids
// is maximal with respect to the current excluded set E.
func (s *state) checkMaximal(r []int32, order Order, lambda float64) bool {
	inT := s.inT
	clear(inT)
	for _, v := range r {
		inT[v] = true
	}
	// Eligible extension candidates: excluded vertices similar to every
	// vertex of R. Membership in E guarantees similarity to M; the
	// dissimilarity scan covers the rest of R (which matters at the
	// all-shrink leaf, where R may be a strict subset of M∪C). The
	// search consumes cand in place, so s.cand keeps its backing.
	cand := s.cand[:0]
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] != statusE {
			continue
		}
		ok := true
		for _, d := range s.p.dissim[v] {
			if inT[d] {
				ok = false
				break
			}
		}
		if ok {
			cand = append(cand, v)
		}
	}
	s.cand = cand[:0]
	if len(cand) == 0 {
		return true
	}
	ck := &checkSearch{
		s:      s,
		root:   r[0],
		inT:    inT,
		inCand: s.inCand,
		seen:   s.seen,
		order:  order,
		lambda: lambda,
	}
	return !ck.extend(nil, cand)
}

// checkSearch is the nested Algorithm 4 search. T = R ∪ added is the
// committed extension candidate; cand the remaining eligible excluded
// vertices.
type checkSearch struct {
	s      *state
	root   int32  // any vertex of R, the BFS anchor
	inT    []bool // R plus committed additions
	inCand []bool // scratch: current candidate mask, rebuilt by pruneCand
	seen   []bool // scratch: BFS marker, cleared before each BFS
	order  Order
	lambda float64
}

// extend reports whether some superset R∪U (U non-empty) is a
// (k,r)-core. It consumes cand; callers pass fresh slices.
func (c *checkSearch) extend(added, cand []int32) bool {
	s := c.s
	if !s.bud.step() {
		return false // budget exhausted: give up on extending
	}
	var deadBranch bool
	cand, deadBranch = c.pruneCand(added, cand)
	if deadBranch {
		return false
	}

	// Success: every committed vertex already has k neighbours in T and
	// T is connected.
	if len(added) > 0 && c.isCore(added) {
		return true
	}
	// Shortcut: no dissimilar pair among the candidates means T∪cand is
	// itself a valid extension (closure guarantees degrees, the
	// reachability filter guarantees connectivity).
	if len(cand) > 0 {
		clean := true
		for _, v := range cand {
			for _, d := range s.p.dissim[v] {
				if c.inCand[d] {
					clean = false
					break
				}
			}
			if !clean {
				break
			}
		}
		if clean {
			return true
		}
	}
	if len(cand) == 0 {
		return false
	}

	u := c.choose(cand)
	rest := make([]int32, 0, len(cand)-1)
	for _, v := range cand {
		if v != u {
			rest = append(rest, v)
		}
	}
	// Expand branch first (Section 7.4).
	c.inT[u] = true
	if c.extend(append(added, u), append([]int32(nil), rest...)) {
		c.inT[u] = false
		return true
	}
	c.inT[u] = false
	// Shrink branch.
	return c.extend(added, rest)
}

// pruneCand removes candidates that are dissimilar to T, structurally
// unsupported inside T∪cand, or unreachable from R, iterating to a
// fixpoint. It reports deadBranch=true when a committed vertex can no
// longer reach degree k or reach R.
func (c *checkSearch) pruneCand(added, cand []int32) ([]int32, bool) {
	s := c.s
	for {
		changed := false
		// Maintain the candidate mask for degree counting.
		for i := range c.inCand {
			c.inCand[i] = false
		}
		for _, v := range cand {
			c.inCand[v] = true
		}
		// Similarity against T plus structural closure.
		out := cand[:0]
		for _, v := range cand {
			okSim := true
			for _, d := range s.p.dissim[v] {
				if c.inT[d] {
					okSim = false
					break
				}
			}
			if !okSim || c.degTC(v) < int32(s.p.k) {
				c.inCand[v] = false
				changed = true
				continue
			}
			out = append(out, v)
		}
		cand = out
		// Reachability from R over T∪cand.
		for i := range c.seen {
			c.seen[i] = false
		}
		stack := append(s.queue[:0], c.root)
		c.seen[c.root] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range s.p.adj[u] {
				if !c.seen[nb] && (c.inT[nb] || c.inCand[nb]) {
					c.seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		s.queue = stack[:0]
		for _, a := range added {
			if !c.seen[a] || c.degTC(a) < int32(s.p.k) {
				return cand, true // committed vertex stranded
			}
		}
		out = cand[:0]
		for _, v := range cand {
			if !c.seen[v] {
				c.inCand[v] = false
				changed = true
				continue
			}
			out = append(out, v)
		}
		cand = out
		if !changed {
			return cand, false
		}
	}
}

// degTC returns deg(v, T ∪ cand) using the maintained masks.
func (c *checkSearch) degTC(v int32) int32 {
	var d int32
	for _, nb := range c.s.p.adj[v] {
		if c.inT[nb] || c.inCand[nb] {
			d++
		}
	}
	return d
}

// isCore reports whether T (= R plus the committed additions) is a
// (k,r)-core: R's vertices keep their degrees by monotonicity, committed
// additions need deg(a,T) >= k, pairwise similarity holds by pruning,
// and T must be connected.
func (c *checkSearch) isCore(added []int32) bool {
	s := c.s
	for _, a := range added {
		var d int32
		for _, nb := range s.p.adj[a] {
			if c.inT[nb] {
				d++
			}
		}
		if d < int32(s.p.k) {
			return false
		}
	}
	// Connectivity via BFS over T alone.
	for i := range c.seen {
		c.seen[i] = false
	}
	stack := append(s.queue[:0], c.root)
	c.seen[c.root] = true
	visited := 1
	total := 0
	for v := int32(0); v < int32(s.p.n); v++ {
		if c.inT[v] {
			total++
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range s.p.adj[u] {
			if c.inT[nb] && !c.seen[nb] {
				c.seen[nb] = true
				visited++
				stack = append(stack, nb)
			}
		}
	}
	s.queue = stack[:0]
	return visited == total
}

// choose picks the next candidate. OrderDegree (the paper's best check
// order) takes the highest degree in T∪cand; the Δ orders use simplified
// single-vertex estimates (the check search has no M/C split, so the
// full two-hop simulation does not apply). Vertices engaged in
// dissimilar pairs are preferred across all orders — branching on a
// similarity-free vertex makes no progress towards the shortcut.
func (c *checkSearch) choose(cand []int32) int32 {
	s := c.s
	// Restrict to candidates with a dissimilar partner among the
	// candidates; the shortcut guarantees at least one exists.
	conflicted := s.scratch[:0]
	for _, v := range cand {
		for _, d := range s.p.dissim[v] {
			if c.inCand[d] {
				conflicted = append(conflicted, v)
				break
			}
		}
	}
	s.scratch = conflicted[:0]
	pool := conflicted
	if len(pool) == 0 {
		pool = cand
	}
	dissimIn := func(v int32) int32 {
		var n int32
		for _, d := range s.p.dissim[v] {
			if c.inCand[d] {
				n++
			}
		}
		return n
	}
	best := pool[0]
	switch c.order {
	case OrderRandom:
		return pool[int(s.nextRand()%uint64(len(pool)))]
	case OrderDelta1ThenDelta2, OrderDelta1:
		bestScore := int32(-1)
		for _, v := range pool {
			if sc := dissimIn(v); sc > bestScore {
				bestScore = sc
				best = v
			}
		}
	case OrderLambdaDelta:
		lambda := c.lambda
		if lambda == 0 {
			lambda = 5
		}
		bestScore := -1e18
		for _, v := range pool {
			sc := lambda*float64(dissimIn(v)) - float64(c.degTC(v))
			if sc > bestScore {
				bestScore = sc
				best = v
			}
		}
	default: // OrderDegree and everything else
		bestDeg := int32(-1)
		for _, v := range pool {
			if d := c.degTC(v); d > bestDeg {
				bestDeg = d
				best = v
			}
		}
	}
	return best
}
