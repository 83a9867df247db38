package core

import "math/bits"

// Search orders (Section 7). The engine must pick (i) which candidate
// vertex to branch on and (ii) which branch to explore first. The Δ1
// measurement is the relative reduction of dissimilar pairs in C, Δ2 the
// relative reduction of edges in M∪C (Equations 3 and 4); both are
// estimated by simulating the candidate pruning restricted to vertices
// within two hops of the chosen vertex, as in Section 7.2, on the
// component's bitset rows (rows.go).

// branchSim holds the estimated effect of taking one branch for a
// candidate vertex.
type branchSim struct {
	delta1 float64
	delta2 float64
}

// score is λΔ1−Δ2, the suitability measure of Section 7.2.
func (b branchSim) score(lambda float64) float64 {
	return lambda*b.delta1 - b.delta2
}

// choice is the vertex selected by an order, with the preferred branch.
type choice struct {
	v           int32
	expandFirst bool
}

// chooseVertex picks the next branching vertex among the eligible
// candidates (C when retention is off, C \ SF(C) when on) according to
// the order. It returns ok=false when no eligible candidate exists.
func (s *state) chooseVertex(order Order, lambda float64, retention, forMaximum bool) (choice, bool) {
	best := choice{v: -1, expandFirst: true}
	switch order {
	case OrderDegree:
		bestDeg := int32(-1)
		for v := int32(0); v < int32(s.p.n); v++ {
			if !s.eligible(v, retention) {
				continue
			}
			if d := s.degMC(v); d > bestDeg {
				bestDeg = d
				best.v = v
			}
		}
	case OrderRandom:
		cnt := 0
		for v := int32(0); v < int32(s.p.n); v++ {
			if !s.eligible(v, retention) {
				continue
			}
			cnt++
			// Reservoir sampling with the state's deterministic rng.
			if s.nextRand()%uint64(cnt) == 0 {
				best.v = v
			}
		}
	default:
		best = s.chooseByDelta(order, lambda, retention, forMaximum)
	}
	return best, best.v >= 0
}

func (s *state) eligible(v int32, retention bool) bool {
	if s.status[v] != statusC {
		return false
	}
	if retention && s.dpC(v) == 0 {
		return false // Theorem 4: never branch on similarity-free vertices
	}
	return true
}

// nextRand advances the xorshift state.
func (s *state) nextRand() uint64 {
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	return x
}

// chooseByDelta evaluates Δ1/Δ2 for both branches of every eligible
// candidate and applies the order-specific aggregation:
//
//   - OrderLambdaDelta (maximum search): pick the vertex whose best
//     branch maximises λΔ1−Δ2 and explore that branch first.
//   - OrderDelta1ThenDelta2 (enumeration): pick the vertex with the
//     largest summed Δ1, ties broken by smallest summed Δ2.
//   - OrderDelta1: largest Δ1 (summed, or best-branch for maximum).
//   - OrderDelta2: smallest Δ2.
func (s *state) chooseByDelta(order Order, lambda float64, retention, forMaximum bool) choice {
	if lambda == 0 {
		lambda = 5 // paper default
	}
	best := choice{v: -1, expandFirst: true}
	var bestPrimary, bestSecondary float64
	first := true
	s.countCandidates()
	for v := s.nextCandidate(0); v >= 0; v = s.nextCandidate(v + 1) {
		if retention && s.counts[v].dpC == 0 {
			continue // not eligible
		}
		exp := s.simulateBranch(v, true)
		shr := s.simulateBranch(v, false)
		var primary, secondary float64
		expandFirst := true
		switch order {
		case OrderLambdaDelta:
			se, ss := exp.score(lambda), shr.score(lambda)
			if se >= ss {
				primary = se
			} else {
				primary = ss
				expandFirst = false
			}
		case OrderDelta1ThenDelta2:
			if forMaximum {
				if exp.delta1 >= shr.delta1 {
					primary, secondary = exp.delta1, -exp.delta2
				} else {
					primary, secondary = shr.delta1, -shr.delta2
					expandFirst = false
				}
			} else {
				primary = exp.delta1 + shr.delta1
				secondary = -(exp.delta2 + shr.delta2)
			}
		case OrderDelta1:
			if forMaximum {
				if exp.delta1 >= shr.delta1 {
					primary = exp.delta1
				} else {
					primary = shr.delta1
					expandFirst = false
				}
			} else {
				primary = exp.delta1 + shr.delta1
			}
		case OrderDelta2:
			if forMaximum {
				if exp.delta2 <= shr.delta2 {
					primary = -exp.delta2
				} else {
					primary = -shr.delta2
					expandFirst = false
				}
			} else {
				primary = -(exp.delta2 + shr.delta2)
			}
		}
		if first || primary > bestPrimary ||
			(primary == bestPrimary && secondary > bestSecondary) {
			first = false
			bestPrimary, bestSecondary = primary, secondary
			best.v = v
			best.expandFirst = expandFirst
		}
	}
	return best
}

// nextCandidate returns the least candidate at or after v, -1 when none
// is left.
func (s *state) nextCandidate(v int32) int32 { return nextBit(s.maskC, v) }

// candCount is a candidate's deg(·, M∪C) and dpC at one node.
type candCount struct{ deg, dpC int32 }

// countCandidates fills the count table with every candidate's
// deg(·, M∪C) and dpC, which the node's simulations read many times,
// and the tight mask: the candidates with deg(·, M∪C) ≤ k, the ones
// that losing a single neighbour leaves below k. Both are valid until
// the state next changes.
func (s *state) countCandidates() {
	k := int32(s.p.k)
	clear(s.tight)
	for v := s.nextCandidate(0); v >= 0; v = s.nextCandidate(v + 1) {
		c := candCount{deg: s.degMC(v), dpC: s.dpC(v)}
		s.counts[v] = c
		if c.deg <= k {
			setBit(s.tight, v)
		}
	}
}

// simulateBranch estimates Δ1 and Δ2 for branching on v without mutating
// the search state. Pruning effects are propagated two waves beyond a
// seed set S: S is v's dissimilar candidates when v joins M, v itself
// when it is discarded. The first wave W1 holds the candidates outside S
// adjacent to S whose degree in M∪C minus their neighbours in S falls
// below k; the second, W2, the candidates outside S∪W1 adjacent to W1
// whose degree minus their neighbours in S∪W1 falls below k. W2 removes
// no further vertices.
//
// Each removed vertex r loses dpC[r] pairs and deg(r, M∪C) edges; pairs
// and edges internal to S∪W1∪W2 are counted twice by these sums. The
// double counting is deliberately left in: correcting it costs a scan
// of every removed vertex's dissimilarity row (the dominant term on
// dense components), biases every candidate the same way, and the
// measure is already a two-hop heuristic (Section 7.2). In the expand
// branch v itself keeps its edges — it moves to M, staying inside M∪C —
// while its dissimilar pairs disappear with their removed partners.
//
// The simulation runs on the bitset rows: each wave ORs the adjacency
// rows of its frontier and tests the candidates it reaches with one
// AND-popcount against the removed set. The removed set grows only
// after a wave, so W2 is decided against S∪W1 alone. A candidate u
// falls when more than its slack, deg(u, M∪C) − k, of its neighbours
// are removed, and the removed set holds no more than |removed| of
// them, so a wave tests only the candidates whose slack is below
// |removed|. A discarded v removes one vertex, which only tight
// candidates cannot spare: when v's row misses the tight mask, W1 is
// empty and the shrink branch loses v's own pairs and edges alone,
// with no wave run. The candidates' degrees and dpC, and the tight
// mask, come from countCandidates, which must have run at the node.
func (s *state) simulateBranch(v int32, expandBranch bool) branchSim {
	if !expandBranch && !meets(s.adjOf(v), s.tight) {
		c := s.counts[v]
		return s.deltas(int64(c.dpC), int64(c.deg))
	}
	w := s.words
	rem, front, next, nbr := s.simRem[:w], s.simFront[:w], s.simNext[:w], s.simNbr[:w]
	maskC := s.maskC[:w]
	clear(rem)
	clear(front)
	var removed int32 // |rem|
	if expandBranch {
		for _, e := range s.disOf(v) {
			x := e.W & maskC[e.I]
			rem[e.I], front[e.I] = x, x
		}
		removed = s.counts[v].dpC
	} else {
		setBit(rem, v)
		setBit(front, v)
		removed = 1
	}
	k := int32(s.p.k)
	// nbr is all zero outside a wave: initMasks zeroes it, and the
	// candidate loop clears each word it reads.
	for wave := 0; wave < 2; wave++ {
		empty := true
		for i, x := range front {
			for x != 0 {
				r := int32(i<<6 | bits.TrailingZeros64(x))
				x &= x - 1
				empty = false
				orRow(nbr, s.adjOf(r))
			}
		}
		if empty {
			break
		}
		// A candidate may fall only when deg(u, M∪C) < k + |removed|.
		lim := k + removed
		for i, x := range nbr {
			nbr[i] = 0
			x &= maskC[i] &^ rem[i]
			var out uint64
			for x != 0 {
				u := int32(i<<6 | bits.TrailingZeros64(x))
				b := x & -x
				x &^= b
				if d := s.counts[u].deg; d < lim && d-andCount(s.adjOf(u), rem) < k {
					out |= b
				}
			}
			next[i] = out
		}
		for i, x := range next {
			rem[i] |= x
			removed += int32(bits.OnesCount64(x))
		}
		front, next = next, front
	}
	var pairLoss, edgeLoss int64
	for i, x := range rem {
		for x != 0 {
			r := i<<6 | bits.TrailingZeros64(x)
			x &= x - 1
			pairLoss += int64(s.counts[r].dpC)
			edgeLoss += int64(s.counts[r].deg)
		}
	}
	return s.deltas(pairLoss, edgeLoss)
}

// deltas turns a branch's lost dissimilar pairs and edges into Δ1 and
// Δ2.
func (s *state) deltas(pairLoss, edgeLoss int64) branchSim {
	var sim branchSim
	if dp := s.sumDpC / 2; dp > 0 {
		sim.delta1 = float64(pairLoss) / float64(dp)
	}
	if s.edgesMC > 0 {
		sim.delta2 = float64(edgeLoss) / float64(s.edgesMC)
	}
	return sim
}
