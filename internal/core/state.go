package core

import (
	"fmt"
	"sync"
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

// change records one status transition for the undo trail.
type change struct {
	v        int32
	from, to byte
}

// state is the mutable search state over one problem. All counter
// mutations happen through apply, which records an undo entry; rewind
// restores any earlier trail mark exactly.
type state struct {
	p      *problem
	status []byte

	// Incremental counters, maintained for every vertex regardless of
	// status (Section 5.1's invariants are expressed through them):
	degM []int32 // structural neighbours in M
	degC []int32 // structural neighbours in C
	dpM  []int32 // dissimilar partners in M
	dpC  []int32 // dissimilar partners in C
	dpE  []int32 // dissimilar partners in E

	cntM, cntC, cntE int
	sumDpC           int64 // Σ_{u∈C} dpC[u] = 2 × DP(C)
	edgesMC          int64 // |E(M∪C)|

	trail []change

	bud *budget

	// Bitset rows and masks (rows.go), words wide. rows holds the
	// adjacency rows, then the dissimilarity rows, all slices of
	// entries; the masks and dense scratch are slices of maskBuf.
	words                             int
	rows                              [][]rowEntry
	entries                           []rowEntry
	maskC, maskMC                     []uint64
	simRem, simFront, simNext, simNbr []uint64 // simulateBranch
	peelH                             []uint64 // simPeelBound
	maskBuf                           []uint64

	// Scratch space reused across nodes.
	queue   []int32
	visited []bool
	scratch []int32
	// A leaf's candidate cores (leafCores), back to back: core i is
	// leaf[leafEnd[i-1]:leafEnd[i]]. checkMaximal leaves both alone.
	leaf    []int32
	leafEnd []int32
	// The random orders' xorshift state (nextRand).
	rngState uint64
	// Theorem 5 scratch (earlyTerminate): inW is all false between
	// calls.
	inW  []bool
	degW []int32
	// Maximal-check masks and root candidates (checkMaximal).
	inT, inCand, seen []bool
	cand              []int32
	// The (k,k')-core peel's queue and structural degrees (simPeelBound).
	bins binQueue
	sdeg []int32
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
		degM:     resize(s.degM, n),
		degC:     resize(s.degC, n),
		dpM:      resize(s.dpM, n),
		dpC:      resize(s.dpC, n),
		dpE:      resize(s.dpE, n),
		trail:    s.trail[:0],
		queue:    s.queue[:0],
		visited:  resize(s.visited, n),
		scratch:  s.scratch[:0],
		leaf:     s.leaf[:0],
		leafEnd:  s.leafEnd[:0],
		rows:     s.rows,
		entries:  s.entries,
		maskBuf:  s.maskBuf,
		rngState: 0x9E3779B97F4A7C15,
		inW:      resize(s.inW, n),
		degW:     resize(s.degW, n),
		inT:      resize(s.inT, n),
		inCand:   resize(s.inCand, n),
		seen:     resize(s.seen, n),
		cand:     s.cand[:0],
		bins: binQueue{
			key:  resize(s.bins.key, n),
			pos:  resize(s.bins.pos, n),
			vert: resize(s.bins.vert, n),
			bin:  resize(s.bins.bin, n+1),
		},
		sdeg: resize(s.sdeg, n),
	}
	s.buildRows()
	for v := 0; v < n; v++ {
		s.apply(int32(v), statusC)
	}
	s.trail = s.trail[:0] // initial population is not undoable
	return s
}

// release returns s to the pool. s must not be used afterwards.
func (s *state) release() {
	s.p, s.bud = nil, nil // keep no problem or budget alive from the pool
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

// transition performs the status change and counter updates without
// touching the trail.
func (s *state) transition(v int32, to byte) {
	s.detach(v)
	s.status[v] = to
	s.attach(v)
	s.maskStatus(v)
}

func (s *state) detach(v int32) {
	switch s.status[v] {
	case statusM:
		s.cntM--
		s.edgesMC -= int64(s.degM[v] + s.degC[v])
		for _, nb := range s.p.adj[v] {
			s.degM[nb]--
		}
		for _, d := range s.p.dissim[v] {
			s.dpM[d]--
		}
	case statusC:
		s.cntC--
		s.edgesMC -= int64(s.degM[v] + s.degC[v])
		s.sumDpC -= int64(s.dpC[v])
		for _, nb := range s.p.adj[v] {
			s.degC[nb]--
		}
		for _, d := range s.p.dissim[v] {
			s.dpC[d]--
			if s.status[d] == statusC {
				s.sumDpC--
			}
		}
	case statusE:
		s.cntE--
		for _, d := range s.p.dissim[v] {
			s.dpE[d]--
		}
	}
}

func (s *state) attach(v int32) {
	switch s.status[v] {
	case statusM:
		s.cntM++
		s.edgesMC += int64(s.degM[v] + s.degC[v])
		for _, nb := range s.p.adj[v] {
			s.degM[nb]++
		}
		for _, d := range s.p.dissim[v] {
			s.dpM[d]++
		}
	case statusC:
		s.cntC++
		s.edgesMC += int64(s.degM[v] + s.degC[v])
		s.sumDpC += int64(s.dpC[v])
		for _, nb := range s.p.adj[v] {
			s.degC[nb]++
		}
		for _, d := range s.p.dissim[v] {
			s.dpC[d]++
			if s.status[d] == statusC {
				s.sumDpC++
			}
		}
	case statusE:
		s.cntE++
		for _, d := range s.p.dissim[v] {
			s.dpE[d]++
		}
	}
}

// discard removes a candidate: to E when it is similar to all of M
// (relevant excluded vertex), otherwise Out.
func (s *state) discard(v int32) {
	if s.dpM[v] == 0 {
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
	// Collect first: apply mutates dpM which the discard destination
	// reads, but iterating p.dissim[u] is safe (static problem data).
	for _, d := range s.p.dissim[u] {
		switch s.status[d] {
		case statusC:
			// dpM[d] > 0 now, so discard sends it Out.
			s.apply(d, statusOut)
		case statusE:
			s.apply(d, statusOut)
		}
	}
}

// prune restores the similarity and degree invariants (Equations 1 and
// 2) plus the trivial connectivity rule: it repeatedly
//
//  1. discards candidates with dpM > 0 (Theorem 3),
//  2. peels candidates with deg(v, M∪C) < k (Theorem 2),
//  3. when retention is on, promotes similarity-free candidates already
//     having k chosen neighbours straight into M (Remark 1), and
//  4. discards candidates disconnected from M in M∪C.
//
// It returns false when the branch is dead: a vertex of M lost the
// structure constraint or M became disconnected inside M∪C.
func (s *state) prune(retention bool) bool {
	for {
		changed := false
		// (1) + (2): similarity kick and structural peeling in one pass
		// using a worklist seeded with all current candidates.
		q := s.queue[:0]
		for v := int32(0); v < int32(s.p.n); v++ {
			if s.status[v] == statusC && (s.dpM[v] > 0 || s.degM[v]+s.degC[v] < int32(s.p.k)) {
				q = append(q, v)
			}
			if s.status[v] == statusM && s.degM[v]+s.degC[v] < int32(s.p.k) {
				s.queue = q
				return false
			}
			if s.status[v] == statusE && s.dpM[v] > 0 {
				s.apply(v, statusOut)
			}
		}
		for len(q) > 0 {
			v := q[len(q)-1]
			q = q[:len(q)-1]
			if s.status[v] != statusC {
				continue
			}
			if s.dpM[v] == 0 && s.degM[v]+s.degC[v] >= int32(s.p.k) {
				continue // repaired by an earlier pop? cannot happen, but safe
			}
			changed = true
			s.discard(v)
			for _, nb := range s.p.adj[v] {
				switch s.status[nb] {
				case statusC:
					if s.degM[nb]+s.degC[nb] < int32(s.p.k) {
						q = append(q, nb)
					}
				case statusM:
					if s.degM[nb]+s.degC[nb] < int32(s.p.k) {
						s.queue = q
						return false
					}
				}
			}
		}
		s.queue = q

		// (3) Remark 1: similarity-free candidates adjacent to >= k
		// chosen vertices can move straight to M.
		if retention {
			for v := int32(0); v < int32(s.p.n); v++ {
				if s.status[v] == statusC && s.dpC[v] == 0 && s.dpM[v] == 0 &&
					s.degM[v] >= int32(s.p.k) {
					s.expand(v)
					changed = true
				}
			}
		}

		// (4) Connectivity: candidates unreachable from M inside M∪C
		// cannot join a connected core containing M.
		if s.cntM > 0 {
			if !s.pruneDisconnected() {
				return false
			}
			// pruneDisconnected only discards C vertices; their removal
			// may break degrees, handled by the next sweep.
			for v := int32(0); v < int32(s.p.n); v++ {
				if s.status[v] == statusC && s.degM[v]+s.degC[v] < int32(s.p.k) {
					changed = true
				}
				if s.status[v] == statusM && s.degM[v]+s.degC[v] < int32(s.p.k) {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// pruneDisconnected discards candidates outside the M-component of M∪C.
// Returns false when the vertices of M span multiple components.
func (s *state) pruneDisconnected() bool {
	var start int32 = -1
	for v := int32(0); v < int32(s.p.n); v++ {
		s.visited[v] = false
		if start < 0 && s.status[v] == statusM {
			start = v
		}
	}
	if start < 0 {
		return true
	}
	q := s.queue[:0]
	q = append(q, start)
	s.visited[start] = true
	seenM := 1
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, nb := range s.p.adj[u] {
			st := s.status[nb]
			if (st == statusM || st == statusC) && !s.visited[nb] {
				s.visited[nb] = true
				if st == statusM {
					seenM++
				}
				q = append(q, nb)
			}
		}
	}
	s.queue = q[:0]
	if seenM < s.cntM {
		return false
	}
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] == statusC && !s.visited[v] {
			s.discard(v)
		}
	}
	return true
}

// members collects the local ids currently holding any of the given
// statuses, in ascending order, into dst.
func (s *state) members(dst []int32, statuses ...byte) []int32 {
	dst = dst[:0]
	for v := int32(0); v < int32(s.p.n); v++ {
		st := s.status[v]
		for _, want := range statuses {
			if st == want {
				dst = append(dst, v)
				break
			}
		}
	}
	return dst
}

// leafCores lists a leaf's candidate cores in leaf and leafEnd: M∪C
// when M is non-empty, otherwise each connected component of C.
func (s *state) leafCores() {
	if s.cntM > 0 {
		s.leaf = s.members(s.leaf[:0], statusM, statusC)
		s.leafEnd = append(s.leafEnd[:0], int32(len(s.leaf)))
		return
	}
	s.mcComponents()
}

// mcComponents lists the connected components of M∪C in leaf and
// leafEnd, each in the order a depth-first walk from its least vertex
// reaches it.
func (s *state) mcComponents() {
	leaf, ends := s.leaf[:0], s.leafEnd[:0]
	clear(s.visited)
	for v := int32(0); v < int32(s.p.n); v++ {
		st := s.status[v]
		if (st != statusM && st != statusC) || s.visited[v] {
			continue
		}
		leaf = append(leaf, v)
		s.visited[v] = true
		q := s.queue[:0]
		q = append(q, v)
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, nb := range s.p.adj[u] {
				nst := s.status[nb]
				if (nst == statusM || nst == statusC) && !s.visited[nb] {
					s.visited[nb] = true
					leaf = append(leaf, nb)
					q = append(q, nb)
				}
			}
		}
		s.queue = q[:0]
		ends = append(ends, int32(len(leaf)))
	}
	s.leaf, s.leafEnd = leaf, ends
}

// checkInvariants verifies the similarity and degree invariants
// (Equations 1 and 2), counter consistency and the C and M∪C masks;
// used by tests only.
func (s *state) checkInvariants() error {
	cntM, cntC, cntE := 0, 0, 0
	var sum int64
	var edges int64
	for v := int32(0); v < int32(s.p.n); v++ {
		var dm, dc, pm, pc, pe int32
		for _, nb := range s.p.adj[v] {
			switch s.status[nb] {
			case statusM:
				dm++
			case statusC:
				dc++
			}
		}
		for _, d := range s.p.dissim[v] {
			switch s.status[d] {
			case statusM:
				pm++
			case statusC:
				pc++
			case statusE:
				pe++
			}
		}
		if dm != s.degM[v] || dc != s.degC[v] || pm != s.dpM[v] || pc != s.dpC[v] || pe != s.dpE[v] {
			return fmt.Errorf("counters of v=%d: got degM=%d degC=%d dpM=%d dpC=%d dpE=%d, want %d %d %d %d %d",
				v, s.degM[v], s.degC[v], s.dpM[v], s.dpC[v], s.dpE[v], dm, dc, pm, pc, pe)
		}
		st := s.status[v]
		if hasBit(s.maskC, v) != (st == statusC) || hasBit(s.maskMC, v) != (st == statusC || st == statusM) {
			return fmt.Errorf("masks of v=%d with status %d: C %t, M∪C %t", v, st, hasBit(s.maskC, v), hasBit(s.maskMC, v))
		}
		switch st {
		case statusM:
			cntM++
			if pm != 0 || pc != 0 {
				return fmt.Errorf("similarity invariant violated at M vertex %d", v)
			}
			edges += int64(dm + dc)
		case statusC:
			cntC++
			sum += int64(pc)
			edges += int64(dm + dc)
		case statusE:
			cntE++
			if pm != 0 {
				return fmt.Errorf("E vertex %d dissimilar to M", v)
			}
		}
	}
	if cntM != s.cntM || cntC != s.cntC || cntE != s.cntE {
		return fmt.Errorf("set sizes: got %d/%d/%d, want %d/%d/%d", s.cntM, s.cntC, s.cntE, cntM, cntC, cntE)
	}
	if sum != s.sumDpC {
		return fmt.Errorf("sumDpC: got %d, want %d", s.sumDpC, sum)
	}
	if edges != 2*s.edgesMC {
		return fmt.Errorf("edgesMC: got %d, want %d", s.edgesMC, edges/2)
	}
	return nil
}
