package core

import "math/bits"

// Bitset rows of a component. A search state may hold one adjacency row
// and one dissimilarity row per vertex, ⌈n/64⌉ words each, plus masks of
// C and M∪C that transition keeps current. All of them are slices of
// one pooled buffer, where internal/bitset would allocate every row on
// its own. The Δ1/Δ2 simulation (simulateRows) and the (k,k')-core
// bound (peelRows) then run on AND and popcount instead of list walks,
// and make exactly the decisions of their list twins: the lists are
// sorted and hold no duplicates, so a row's bits ascend in list order.
//
// Rows pay off while a row is no wider than an adjacency list:
// ⌈n/64⌉ ≤ 2m/n, the component's average degree. That caps the rows at
// four times the bytes of the adjacency lists. Wider rows, on large
// sparse components, are slower than the lists, which such components
// keep.

// useRows reports whether p's rows are no wider than its average degree.
func useRows(p *problem) bool {
	twoM := 0
	for _, a := range p.adj {
		twoM += len(a)
	}
	return rowWords(p.n)*p.n <= twoM
}

// rowWords is the width of a row over n vertices.
func rowWords(n int) int { return (n + 63) / 64 }

// buildRows fills the state's rows from p's lists and its masks from
// status, in one pooled buffer; the row kernels run from then on.
func (s *state) buildRows() {
	n, w := s.p.n, rowWords(s.p.n)
	s.words = w
	s.rowBuf = resize(s.rowBuf, (2*n+7)*w)
	buf := s.rowBuf
	take := func(words int) []uint64 {
		b := buf[:words:words]
		buf = buf[words:]
		return b
	}
	s.adjRow, s.disRow = take(n*w), take(n*w)
	s.maskC, s.maskMC = take(w), take(w)
	s.simRem, s.simFront, s.simNext, s.simNbr = take(w), take(w), take(w), take(w)
	s.peelH = take(w)
	for v := int32(0); v < int32(n); v++ {
		adj, dis := s.adjOf(v), s.disOf(v)
		for _, u := range s.p.adj[v] {
			setBit(adj, u)
		}
		for _, u := range s.p.dissim[v] {
			setBit(dis, u)
		}
		s.maskStatus(v)
	}
}

// adjOf and disOf return v's adjacency and dissimilarity rows.
func (s *state) adjOf(v int32) []uint64 {
	w := int32(s.words)
	return s.adjRow[v*w : (v+1)*w]
}

func (s *state) disOf(v int32) []uint64 {
	w := int32(s.words)
	return s.disRow[v*w : (v+1)*w]
}

// maskStatus sets v's bits of the C and M∪C masks from its status.
func (s *state) maskStatus(v int32) {
	i, b := v>>6, uint64(1)<<(v&63)
	s.maskC[i] &^= b
	s.maskMC[i] &^= b
	switch s.status[v] {
	case statusC:
		s.maskC[i] |= b
		s.maskMC[i] |= b
	case statusM:
		s.maskMC[i] |= b
	}
}

func setBit(row []uint64, v int32) { row[v>>6] |= 1 << (v & 63) }

func hasBit(row []uint64, v int32) bool { return row[v>>6]&(1<<(v&63)) != 0 }

// andCount returns |a ∧ b|.
func andCount(a, b []uint64) int32 {
	b = b[:len(a)]
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return int32(c)
}

// nextBit returns the least member of row at or after v, -1 when none.
func nextBit(row []uint64, v int32) int32 {
	i := int(v >> 6)
	if i >= len(row) {
		return -1
	}
	x := row[i] & (^uint64(0) << (v & 63))
	for x == 0 {
		if i++; i == len(row) {
			return -1
		}
		x = row[i]
	}
	return int32(i<<6 | bits.TrailingZeros64(x))
}
