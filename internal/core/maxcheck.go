package core

import "slices"

// Maximal checking (Theorem 6, Algorithm 4). A freshly found (k,r)-core
// R is maximal iff no non-empty subset U of the relevant excluded set E
// yields a (k,r)-core R∪U. The check is the set-enumeration search
// itself with R fixed in M: it runs on the search state, through the
// same expand, discard, prune and rewind as the enumeration and the
// maximum search, and stops at the first valid extension. Its nodes
// count in Result.Nodes.
//
// Two observations keep the check polynomial except on genuinely hard
// instances:
//
//  1. Candidates that prune removes — below k neighbours in M∪C, or
//     not reachable from R inside M∪C — can never join an extension (a
//     connected R∪U needs a path from every u ∈ U to R).
//  2. Once no dissimilar pair is left among the candidates
//     (sumDpC == 0), M∪C itself is an extension, so the check branches
//     only on vertices with a dissimilar candidate partner, which bounds
//     its tree by the dissimilarity structure rather than by |E|.

// checkMaximal reports whether the core r (local ids, a leaf's
// candidate core from leafCores) is maximal with respect to the current
// excluded set E. When every vertex of E is dissimilar to some vertex
// of r, which ends most checks, it returns true without a transition.
// Otherwise it moves r to M, the eligible vertices of E (similar to all
// of r) to C and everything else to Out, searches, and rewinds the
// state to where it found it. It borrows peelH for r's mask and leaves
// leaf and leafEnd alone.
func (s *state) checkMaximal(r []int32, order Order, lambda float64) bool {
	inR := s.peelH
	clear(inR)
	for _, v := range r {
		setBit(inR, v)
	}
	eligible := false
	for v := nextBit(s.maskE, 0); v >= 0 && !eligible; v = nextBit(s.maskE, v+1) {
		eligible = !meets(s.disOf(v), inR)
	}
	if !eligible {
		return true
	}
	// Each move below changes only v's own bits, so the scans go on
	// from v+1 in the masks they change.
	m := s.mark()
	for v := nextBit(s.maskMC, 0); v >= 0; v = nextBit(s.maskMC, v+1) {
		if hasBit(inR, v) {
			s.apply(v, statusM)
		} else {
			s.apply(v, statusOut) // another component of the all-shrink leaf
		}
	}
	for v := nextBit(s.maskE, 0); v >= 0; v = nextBit(s.maskE, v+1) {
		if meets(s.disOf(v), s.maskM) {
			s.apply(v, statusOut)
		} else {
			s.apply(v, statusC)
		}
	}
	// The eligible vertices entered C without seeding prune's queue, so
	// those short of k neighbours in M∪C leave here, and prune carries
	// on from their discards.
	k := int32(s.p.k)
	for v := s.nextCandidate(0); v >= 0; v = s.nextCandidate(v + 1) {
		if s.degMC(v) < k {
			s.discard(v)
		}
	}
	extended := s.checkNode(m, len(r), order, lambda)
	s.rewind(m)
	return !extended
}

// checkNode is one node of the maximal check, reached by the
// transitions after trail mark m; size is the checked core's. It
// reports whether some connected (k,r)-core of more than size vertices
// lies between M and M∪C. It leaves its transitions on the trail for
// checkMaximal to rewind.
func (s *state) checkNode(m, size int, order Order, lambda float64) bool {
	if !s.bud.step() || !s.prune(false, m) {
		return false // budget exhausted, or the committed vertices are stranded
	}
	if s.cntM > size && s.connectedCoreM() {
		return true
	}
	if s.cntC == 0 {
		return false
	}
	if s.sumDpC == 0 {
		return true // prune left M∪C a connected k-core, with no dissimilar pair
	}
	u := s.checkChoice(order, lambda)
	m = s.mark()
	s.expand(u) // expand branch first (Section 7.4)
	if s.checkNode(m, size, order, lambda) {
		return true
	}
	s.rewind(m)
	s.discard(u)
	return s.checkNode(m, size, order, lambda)
}

// connectedCoreM reports whether M alone is a connected k-core: every
// vertex has k neighbours in M, and a reach over M's mask from one of
// them covers M.
func (s *state) connectedCoreM() bool {
	k := int32(s.p.k)
	first := nextBit(s.maskM, 0)
	for v := first; v >= 0; v = nextBit(s.maskM, v+1) {
		if s.degM(v) < k {
			return false
		}
	}
	clear(s.reached)
	setBit(s.reached, first)
	s.reach(s.reached, s.maskM)
	return slices.Equal(s.reached, s.maskM)
}

// checkChoice picks the maximal check's branching vertex among the
// candidates with a dissimilar candidate partner (dpC > 0), in
// ascending id; the first best score wins:
//
//   - OrderRandom: the nextRand() % count-th of them;
//   - OrderDelta1ThenDelta2 and OrderDelta1: the most partners, dpC;
//   - OrderLambdaDelta: λ·dpC − deg(·, M∪C), λ defaulting to 5;
//   - OrderDegree and every other order: the most neighbours in M∪C.
//
// The Δ orders score one vertex at a time: the check prunes without
// retention and needs no two-hop simulation. The caller guarantees
// sumDpC > 0, so some candidate qualifies.
func (s *state) checkChoice(order Order, lambda float64) int32 {
	if order == OrderRandom {
		count := 0
		for v := s.nextCandidate(0); v >= 0; v = s.nextCandidate(v + 1) {
			if s.dpC(v) > 0 {
				count++
			}
		}
		i := int(s.nextRand() % uint64(count))
		for v := s.nextCandidate(0); ; v = s.nextCandidate(v + 1) {
			if s.dpC(v) > 0 {
				if i == 0 {
					return v
				}
				i--
			}
		}
	}
	if lambda == 0 {
		lambda = 5
	}
	best, bestScore := int32(-1), -1e18
	for v := s.nextCandidate(0); v >= 0; v = s.nextCandidate(v + 1) {
		dp := s.dpC(v)
		if dp == 0 {
			continue
		}
		var score float64
		switch order {
		case OrderDelta1ThenDelta2, OrderDelta1:
			score = float64(dp)
		case OrderLambdaDelta:
			score = lambda*float64(dp) - float64(s.degMC(v))
		default:
			score = float64(s.degMC(v))
		}
		if best < 0 {
			best = v // kept when no score passes -1e18 (a NaN or huge negative λ)
		}
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}
