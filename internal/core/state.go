package core

import (
	"math/bits"
	"sync"

	"krcore/internal/bitset"
	"krcore/internal/color"
)

// Vertex statuses of the set-enumeration search. M holds chosen
// vertices, C candidates, E the relevant excluded vertices (discarded
// but similar to every vertex of M, Section 5.2), and Out everything
// else.
const (
	statusOut byte = iota
	statusC
	statusM
	statusE
)

// inMC reports whether status st lies in M∪C.
func inMC(st byte) bool { return st == statusM || st == statusC }

// change records one status transition for the undo trail.
type change struct {
	v        int32
	from, to byte
}

// state is the mutable search state over one problem. Every status
// change goes through apply, which records an undo entry; rewind
// restores any earlier trail mark exactly. Besides status and the trail
// the state keeps a dense mask per status set (rows.go) and a few
// scalars: Section 5.1's per-vertex counters — a vertex's neighbours in
// M∪C and in M, its dissimilar partners in M, C and E — are each one
// AND-popcount of the vertex's row against a mask (degMC, degM, dpM,
// dpC, dpE). The enumeration, the maximum search and the maximal check
// all run on it, and the status masks are its only mutable vertex sets.
//
// Its dense scratch masks serve one step at a time: pending holds
// prune's retention seeds; reached is the result of every reach
// (pruneDisconnected, leafCores, earlyTerminate and the maximal check's
// core test); simRem and simNbr are simulateBranch's, and so are
// simFront and simNext, which reach borrows; peelH is the (k,k')-core
// peel's H, which leafCores borrows for the vertices it has not yet
// split, earlyTerminate for M and the eligible excluded vertices, and
// checkMaximal for the checked core.
type state struct {
	p      *problem
	status []byte

	cntM, cntC, cntE int
	sumDpC           int64 // Σ_{u∈C} dpC(u) = 2 × DP(C)
	edgesMC          int64 // |E(M∪C)|

	trail []change

	bud *budget

	// Bitset rows and masks (rows.go), words wide. rows is the
	// problem's: its adjacency rows, then its dissimilarity rows. The
	// masks and dense scratch are slices of maskBuf.
	words                             int
	rows                              [][]bitset.Entry
	maskM, maskC, maskE, maskMC       []uint64
	reached                           []uint64 // reach's result
	pending                           []uint64 // prune's retention seeds
	simRem, simFront, simNext, simNbr []uint64 // simulateBranch; reach borrows front and next
	peelH                             []uint64 // simPeelBound; leafCores, earlyTerminate and checkMaximal borrow it
	maskBuf                           []uint64

	// counts is countCandidates' table: every candidate's deg(·, M∪C)
	// and dpC at the node chooseByDelta runs at; tight, a slice of
	// maskBuf, holds the candidates among them with deg(·, M∪C) ≤ k.
	counts []candCount
	tight  []uint64

	// Scratch space reused across nodes.
	queue   []int32
	scratch []int32
	// A leaf's candidate cores (leafCores), back to back: core i is
	// leaf[leafEnd[i-1]:leafEnd[i]]. checkMaximal leaves both alone.
	leaf    []int32
	leafEnd []int32
	// The random orders' xorshift state (nextRand).
	rngState uint64
	// The (k,k')-core peel's queue and structural degrees (simPeelBound).
	bins binQueue
	sdeg []int32
	// The colour bound's working arrays (colorCount).
	colors color.Scratch
}

// statePool recycles search states across queries and components: a
// warm query then allocates little beyond its result. One process-wide
// pool, not one per Prepared, so cached settings hold no idle states.
var statePool = sync.Pool{New: func() any { return new(state) }}

// newState takes a state from the pool and resets it to the root of
// p's search: every vertex a candidate, the trail empty. Return it with
// release when the search ends.
func newState(p *problem, bud *budget) *state {
	s := statePool.Get().(*state)
	n := p.n
	// Every field not listed is zeroed: counters and the slices'
	// contents alike.
	*s = state{
		p:        p,
		bud:      bud,
		status:   resize(s.status, n),
		trail:    s.trail[:0],
		queue:    s.queue[:0],
		scratch:  s.scratch[:0],
		leaf:     s.leaf[:0],
		leafEnd:  s.leafEnd[:0],
		rows:     p.rows,
		maskBuf:  s.maskBuf,
		counts:   resize(s.counts, n),
		rngState: 0x9E3779B97F4A7C15,
		bins: binQueue{
			key:  resize(s.bins.key, n),
			pos:  resize(s.bins.pos, n),
			vert: resize(s.bins.vert, n),
			bin:  resize(s.bins.bin, n+1),
		},
		sdeg:   resize(s.sdeg, n),
		colors: s.colors,
	}
	s.initMasks()
	for v := 0; v < n; v++ {
		s.transition(int32(v), statusC) // the initial population is not undoable
	}
	return s
}

// release returns s to the pool. s must not be used afterwards.
func (s *state) release() {
	s.p, s.bud, s.rows = nil, nil, nil // keep no problem, rows or budget alive from the pool
	statePool.Put(s)
}

// resize returns buf re-sliced to n zeroed elements, reusing its
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// degMC and degM return v's neighbours in M∪C and in M; dpM, dpC and
// dpE its dissimilar partners in M, C and E.
func (s *state) degMC(v int32) int32 { return andCount(s.adjOf(v), s.maskMC) }

func (s *state) degM(v int32) int32 { return andCount(s.adjOf(v), s.maskM) }

func (s *state) dpM(v int32) int32 { return andCount(s.disOf(v), s.maskM) }

func (s *state) dpC(v int32) int32 { return andCount(s.disOf(v), s.maskC) }

func (s *state) dpE(v int32) int32 { return andCount(s.disOf(v), s.maskE) }

// mark returns the current trail position.
func (s *state) mark() int { return len(s.trail) }

// rewind undoes every transition after trail mark m.
func (s *state) rewind(m int) {
	for len(s.trail) > m {
		c := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.transition(c.v, c.from)
	}
}

// apply moves v to the given status, recording the undo entry.
func (s *state) apply(v int32, to byte) {
	from := s.status[v]
	if from == to {
		return
	}
	s.trail = append(s.trail, change{v: v, from: from, to: to})
	s.transition(v, to)
}

// transition moves v to status to without touching the trail. It
// flips v's mask bits and updates the set sizes and the two sums: v
// brings or takes deg(v, M∪C) edges into or out of M∪C and 2 dpC(v) to
// or from sumDpC, each one AND-popcount of a row (v is neither its own
// neighbour nor its own partner, so its bits do not matter).
func (s *state) transition(v int32, to byte) {
	from := s.status[v]
	if inMC(from) != inMC(to) {
		if d := int64(s.degMC(v)); inMC(to) {
			s.edgesMC += d
		} else {
			s.edgesMC -= d
		}
	}
	if (from == statusC) != (to == statusC) {
		if d := 2 * int64(s.dpC(v)); to == statusC {
			s.sumDpC += d
		} else {
			s.sumDpC -= d
		}
	}
	s.addSize(from, -1)
	s.addSize(to, 1)
	s.status[v] = to
	s.maskStatus(v)
}

// addSize adds d to the size of status st's set.
func (s *state) addSize(st byte, d int) {
	switch st {
	case statusM:
		s.cntM += d
	case statusC:
		s.cntC += d
	case statusE:
		s.cntE += d
	}
}

// discard removes a candidate: to E when it is similar to all of M
// (relevant excluded vertex), otherwise Out.
func (s *state) discard(v int32) {
	if s.dpM(v) == 0 {
		s.apply(v, statusE)
	} else {
		s.apply(v, statusOut)
	}
}

// expand moves candidate u into M and enforces the similarity pruning
// rule (Theorem 3): candidates and excluded vertices dissimilar to u
// leave the search. Structural consequences are handled by prune.
func (s *state) expand(u int32) {
	s.apply(u, statusM)
	for _, e := range s.disOf(u) {
		for x := e.W & (s.maskC[e.I] | s.maskE[e.I]); x != 0; x &= x - 1 {
			s.apply(e.I<<6|int32(bits.TrailingZeros64(x)), statusOut)
		}
	}
}

// prune restores the degree invariant (Equation 1), Remark 1's
// retention and the connectivity rule after the transitions made since
// trail mark m, which must be a mark where they held. They hold at the
// root, where M is empty and the component is a k-core (DecodePrepared
// checks that of a loaded one). It works the trail from m as its queue,
// each transition seeding the vertices whose counters it changed:
//
//   - a vertex leaving M∪C lowers its neighbours' deg(·, M∪C): a
//     candidate falling below k is discarded at once (Theorem 2);
//   - with retention on, a vertex leaving C may leave a dissimilar
//     partner similarity-free, and a vertex entering M may give a
//     neighbour its k-th neighbour in M. These seeds gather in the
//     pending mask, and once the queue is empty each pending candidate
//     that is similarity-free with k neighbours in M moves straight to
//     M (Remark 1), its transitions joining the queue.
//
// expand already sends every vertex dissimilar to M out of C and E
// (Theorem 3, Equation 2), so every discard here lands in E. Once the
// queue and the pending mask are empty and M is not, candidates that M
// cannot reach inside M∪C are discarded, which seeds the queue again.
// The rules only remove candidates or promote them, and a promoted
// vertex is never removed, so the fixpoint does not depend on the order
// they fire in.
//
// It returns false when the branch is dead: a vertex of M fell below k
// neighbours in M∪C, or M spans several components of M∪C.
func (s *state) prune(retention bool, m int) bool {
	clear(s.pending)
	for {
		for ; m < len(s.trail); m++ {
			if !s.propagate(s.trail[m], retention) {
				return false
			}
		}
		if retention && s.promotePending() {
			continue
		}
		if s.cntM == 0 {
			return true
		}
		if !s.pruneDisconnected() {
			return false
		}
		if m == len(s.trail) {
			return true
		}
	}
}

// propagate discards the neighbours one transition leaves below k
// neighbours in M∪C and, with retention on, adds the candidates it may
// make promotable to the pending mask. It returns false when a vertex
// of M falls below k neighbours in M∪C.
func (s *state) propagate(c change, retention bool) bool {
	k := int32(s.p.k)
	if inMC(c.from) && !inMC(c.to) {
		for _, e := range s.adjOf(c.v) {
			for x := e.W & s.maskMC[e.I]; x != 0; x &= x - 1 {
				nb := e.I<<6 | int32(bits.TrailingZeros64(x))
				if s.degMC(nb) >= k {
					continue
				}
				if s.status[nb] == statusM {
					return false
				}
				s.apply(nb, statusE)
			}
		}
	}
	if !retention {
		return true
	}
	if c.from == statusC {
		orRow(s.pending, s.disOf(c.v))
	}
	if c.to == statusM {
		orRow(s.pending, s.adjOf(c.v))
	}
	return true
}

// promotePending moves the pending candidates that are similarity-free
// and have k neighbours in M into M (Remark 1), and empties the pending
// set. It reports whether it moved any.
func (s *state) promotePending() bool {
	k := int32(s.p.k)
	moved := false
	for i, x := range s.pending {
		s.pending[i] = 0
		for x &= s.maskC[i]; x != 0; x &= x - 1 {
			v := int32(i<<6 | bits.TrailingZeros64(x))
			// An earlier promotion's expand may have moved v.
			if s.status[v] == statusC && s.degM(v) >= k && s.dpC(v) == 0 {
				s.expand(v)
				moved = true
			}
		}
	}
	return moved
}

// pruneDisconnected discards the candidates that M cannot reach inside
// M∪C. It returns false when M spans several components of M∪C.
func (s *state) pruneDisconnected() bool {
	reached := s.reached
	clear(reached)
	setBit(reached, nextBit(s.maskM, 0))
	s.reach(reached, s.maskMC)
	for i, x := range s.maskM {
		if x&^reached[i] != 0 {
			return false
		}
	}
	for i, x := range s.maskC {
		for x &^= reached[i]; x != 0; x &= x - 1 {
			s.apply(int32(i<<6|bits.TrailingZeros64(x)), statusE)
		}
	}
	return true
}

// reach grows seen, a set inside allowed, to every vertex of allowed
// that a path inside allowed joins to it. It runs breadth-first, a
// level at a time: the next level is its frontier's adjacency rows ∧
// allowed ∧ ¬seen, word by word, on simFront and simNext.
func (s *state) reach(seen, allowed []uint64) {
	front, next := s.simFront, s.simNext
	copy(front, seen)
	clear(next)
	for grew := true; grew; front, next = next, front {
		grew = false
		for i, x := range front {
			front[i] = 0
			for ; x != 0; x &= x - 1 {
				for _, e := range s.adjOf(int32(i<<6 | bits.TrailingZeros64(x))) {
					if y := e.W & allowed[e.I] &^ seen[e.I]; y != 0 {
						seen[e.I] |= y
						next[e.I] |= y
						grew = true
					}
				}
			}
		}
	}
}

// leafCores lists a leaf's candidate cores in leaf and leafEnd, each in
// ascending order: M∪C when M is non-empty, otherwise each connected
// component of C, by ascending least vertex.
func (s *state) leafCores() {
	s.leaf, s.leafEnd = s.leaf[:0], s.leafEnd[:0]
	if s.cntM > 0 {
		s.leaf = appendBits(s.leaf, s.maskMC)
		s.leafEnd = append(s.leafEnd, int32(len(s.leaf)))
		return
	}
	left := s.peelH
	copy(left, s.maskMC)
	for v := nextBit(left, 0); v >= 0; v = nextBit(left, v+1) {
		clear(s.reached)
		setBit(s.reached, v)
		s.reach(s.reached, left)
		s.leaf = appendBits(s.leaf, s.reached)
		s.leafEnd = append(s.leafEnd, int32(len(s.leaf)))
		for i, x := range s.reached {
			left[i] &^= x
		}
	}
}
