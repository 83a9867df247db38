package core

import (
	"math/bits"

	"krcore/internal/color"
)

// Size upper bounds for the maximum search (Section 6.2). All bounds are
// evaluated on H = M∪C: J is the structural induced subgraph, J' the
// similarity graph on H. Any (k,r)-core R derivable from the current
// node satisfies R ⊆ H, so an upper bound on the maximum clique of J'
// (respectively the (k,k')-core of Theorem 7) bounds |R|.

// boundExceeds reports whether the kind's bound exceeds thr: the
// decision the searches prune on, with thr the maximum search's
// incumbent or Enumerate's MinSize−1. It stops each bound as soon as
// the answer is known. No bound exceeds |M∪C|, and every bound of a non-empty M∪C is
// at least 1, so either answers thr ≥ |M∪C| or thr < 1 at once; the
// colour count stops once it passes thr, and the peels stop as
// simPeelBound says.
func (s *state) boundExceeds(kind Bound, thr int) bool {
	if s.cntM+s.cntC <= thr {
		return false
	}
	if thr < 1 {
		return true
	}
	switch kind {
	case BoundColor:
		return s.colorCount(thr) > thr
	case BoundKcore:
		return s.simPeelBound(false, thr) > thr
	case BoundColorKcore:
		return s.simPeelBound(false, thr) > thr && s.colorCount(thr) > thr
	case BoundDoubleKcore, BoundDefault:
		return s.simPeelBound(true, thr) > thr
	default: // BoundNaive: |M∪C|, which exceeds thr
		return true
	}
}

// colorCount greedily colours the similarity graph J' (the complement
// of the dissimilarity rows restricted to H); a clique of size q needs
// q colours, so the colour count bounds |R|. The count stops at
// limit+1, so a limit of |H| or more gives the whole count.
func (s *state) colorCount(limit int) int {
	h := appendBits(s.scratch[:0], s.maskMC)
	s.scratch = h[:0]
	if len(h) == 0 {
		return 0
	}
	return color.ColorsComplement(s.rows[s.p.n:], h, limit, &s.colors)
}

// simPeelBound peels H by ascending similarity degree, optionally with
// the structural k-core cascade of Algorithm 6 (KK'coreUpdate). With the
// cascade it computes k'max of the (k,k')-core (Theorem 7), returning
// k'max+1; without it, it computes the similarity-graph degeneracy
// kmax(J'), returning kmax+1 — the plain k-core clique bound.
//
// With thr ≥ 0 the peel stops once the result's side of thr is known,
// returning k'+1 for the k' reached so far, which lies on the same side
// of thr as the whole peel's result. k' only rises, so k'+1 > thr
// settles it. A vertex's effective key is its similarity degree in H,
// so no later key exceeds the vertices left in H minus one: with
// k'+1 ≤ thr and at most thr vertices left, the result stays at most
// thr. With thr < 0 the peel runs to the end.
//
// The similarity graph is dense inside H, so the peel runs on the
// complement: simdeg(v) = |H|−1−|dissim(v)∩H|. Removing any vertex w
// decrements the similarity degree of every remaining vertex except w's
// dissimilar partners. We therefore keep key(v) = simdeg0(v) +
// (number of removed dissimilar partners of v); the effective similarity
// degree is key(v) − removedTotal.
//
// Keys only rise, by one at a time, and never exceed |H|−1, so the
// queue is the flat bin-sort of Batagelj–Zaveršnik run upwards: vert
// lists H by ascending key, pos[v] is v's index in vert and bin[d] the
// first index of key d. A raise swaps v to the end of its bin and moves
// the next bin's start down by one, O(|H| + nd) in total. The order of
// equal keys does not change the result: H starts with k structural
// neighbours per vertex (prune leaves it so), the cascade keeps that
// true, and each popped vertex has the least similarity degree left, so
// k'max is the largest k' with a non-empty (k,k')-core whatever the tie
// order.
//
// The peel runs on the component's bitset rows: H is a copy of the M∪C
// mask, dIn(v) = |dissim(v) ∧ H|, and a removed vertex's partners and
// neighbours left in H are the bits of its rows ANDed with H, visited in
// ascending order.
func (s *state) simPeelBound(structural bool, thr int) int {
	inH := s.peelH
	copy(inH, s.maskMC)
	h := appendBits(s.scratch[:0], inH)
	s.scratch = h[:0]
	n := len(h)
	if n == 0 {
		return 0
	}
	// The peel stops once k' reaches hi or at most lo vertices are left.
	hi, lo := int32(thr), int32(thr)
	if thr < 0 {
		hi, lo = int32(n), -1
	}
	q, sdeg := s.bins, s.sdeg
	for _, v := range h {
		q.key[v] = int32(n) - 1 - andCount(s.disOf(v), inH)
		sdeg[v] = andCount(s.adjOf(v), inH)
	}
	q.sort(h)

	removedTotal := int32(0)
	kPrime := int32(0)
	queue := s.queue[:0]
	// Every vertex before v in vert has left H, so v, when still in H,
	// holds the least key.
	for _, v := range q.vert[:n] {
		if !hasBit(inH, v) {
			continue // removed by an earlier cascade
		}
		if int32(n)-removedTotal <= lo {
			break
		}
		if eff := q.key[v] - removedTotal; eff > kPrime {
			kPrime = eff
			if kPrime >= hi {
				break
			}
		}
		// Remove v, then cascade through structurally deficient
		// vertices at the current k' level (KK'coreUpdate); their
		// removal does not raise k'.
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if !hasBit(inH, u) {
				continue
			}
			inH[u>>6] &^= 1 << (u & 63)
			removedTotal++
			for _, e := range s.disOf(u) {
				for x := e.W & inH[e.I]; x != 0; x &= x - 1 {
					q.raise(e.I<<6 | int32(bits.TrailingZeros64(x)))
				}
			}
			for _, e := range s.adjOf(u) {
				for x := e.W & inH[e.I]; x != 0; x &= x - 1 {
					nb := e.I<<6 | int32(bits.TrailingZeros64(x))
					sdeg[nb]--
					if structural && sdeg[nb] < int32(s.p.k) {
						queue = append(queue, nb)
					}
				}
			}
		}
	}
	s.queue = queue[:0]
	return int(kPrime) + 1
}

// binQueue is simPeelBound's flat bin-sort: vert lists the vertices by
// ascending key, pos[v] is v's index in vert and bin[d] the first index
// of key d.
type binQueue struct {
	key, pos, vert, bin []int32
}

// sort lists h by ascending key. Every key must lie in [0, len(h)).
func (q *binQueue) sort(h []int32) {
	n := len(h)
	key, pos := q.key, q.pos
	vert, bin := q.vert[:n], q.bin[:n+1]
	clear(bin)
	for _, v := range h {
		bin[key[v]+1]++
	}
	for d := 1; d <= n; d++ {
		bin[d] += bin[d-1] // bin[d] = first index of key d
	}
	for _, v := range h {
		pos[v] = bin[key[v]]
		vert[pos[v]] = v
		bin[key[v]]++
	}
	for d := n; d > 0; d-- {
		bin[d] = bin[d-1] // undo the placement's advance
	}
	bin[0] = 0
}

// raise moves v to the next key: v swaps with the last vertex of its
// bin, which then ends one index earlier.
func (q *binQueue) raise(v int32) {
	d := q.key[v]
	last := q.bin[d+1] - 1
	if w := q.vert[last]; w != v {
		q.vert[q.pos[v]], q.vert[last] = w, v
		q.pos[w], q.pos[v] = q.pos[v], last
	}
	q.bin[d+1]--
	q.key[v]++
}
