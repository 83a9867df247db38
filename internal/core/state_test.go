package core

// Oracles of the search state, computed by walking a component's
// adjacency and dissimilarity lists, which oracleLists builds without
// the preparation under test: the counters, sums and masks the state
// derives from its rows and masks (checkInvariants), and the fixpoint
// prune must leave (checkFixpoint).

import (
	"fmt"
	"slices"

	"krcore/internal/graph"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
)

// problemLists are a component's adjacency and dissimilarity lists,
// ascending, by local id.
type problemLists struct{ adj, dissim [][]int32 }

// oracleLists builds p's lists from the graph g it was prepared on and
// the oracle o, independently of preparation: graph.Induced on p's
// members, keeping the edges whose ends o finds similar (the
// dissimilar-edge filter), and simgraph.BuildDissim, one
// Oracle.Similar per pair.
func oracleLists(g *graph.Graph, o *similarity.Oracle, p *problem) *problemLists {
	sub, _ := g.Induced(p.orig, make([]int32, g.N()))
	l := &problemLists{adj: make([][]int32, p.n), dissim: simgraph.BuildDissim(o, p.orig).Lists}
	for u := range l.adj {
		for _, v := range sub.Neighbors(int32(u)) {
			if o.Similar(p.orig[u], p.orig[v]) {
				l.adj[u] = append(l.adj[u], v)
			}
		}
	}
	return l
}

// statusCounts returns how many members of list hold each status.
func statusCounts(s *state, list []int32) (c [4]int32) {
	for _, u := range list {
		c[s.status[u]]++
	}
	return c
}

// listMembers lists the vertices holding one of statuses, ascending.
func listMembers(s *state, statuses ...byte) []int32 {
	var out []int32
	for v := int32(0); v < int32(s.p.n); v++ {
		if slices.Contains(statuses, s.status[v]) {
			out = append(out, v)
		}
	}
	return out
}

// checkInvariants verifies the similarity invariant (Equation 2), every
// counter the rows and masks give against a walk of the lists l, the
// set sizes and sums, and the M, C, E and M∪C masks.
func (s *state) checkInvariants(l *problemLists) error {
	cntM, cntC, cntE := 0, 0, 0
	var sum, edges int64
	for v := int32(0); v < int32(s.p.n); v++ {
		a, d := statusCounts(s, l.adj[v]), statusCounts(s, l.dissim[v])
		dmc, dm := a[statusM]+a[statusC], a[statusM]
		pm, pc, pe := d[statusM], d[statusC], d[statusE]
		if s.degMC(v) != dmc || s.degM(v) != dm || s.dpM(v) != pm || s.dpC(v) != pc || s.dpE(v) != pe {
			return fmt.Errorf("counters of v=%d: got degMC=%d degM=%d dpM=%d dpC=%d dpE=%d, want %d %d %d %d %d",
				v, s.degMC(v), s.degM(v), s.dpM(v), s.dpC(v), s.dpE(v), dmc, dm, pm, pc, pe)
		}
		st := s.status[v]
		for _, m := range []struct {
			name string
			mask []uint64
			in   bool
		}{
			{"M", s.maskM, st == statusM},
			{"C", s.maskC, st == statusC},
			{"E", s.maskE, st == statusE},
			{"M∪C", s.maskMC, inMC(st)},
		} {
			if hasBit(m.mask, v) != m.in {
				return fmt.Errorf("v=%d with status %d: %s mask bit %t", v, st, m.name, !m.in)
			}
		}
		switch st {
		case statusM:
			cntM++
			if pm != 0 || pc != 0 {
				return fmt.Errorf("similarity invariant violated at M vertex %d", v)
			}
			edges += int64(dmc)
		case statusC:
			cntC++
			sum += int64(pc)
			edges += int64(dmc)
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

// checkFixpoint verifies, on the lists l, the state a successful prune
// leaves: no candidate or M vertex has fewer than k neighbours in M∪C
// (Theorem 2), no candidate or E vertex is dissimilar to M (Theorem 3),
// with retention on no similarity-free candidate has k neighbours in M
// (Remark 1), and with M non-empty a walk from a vertex of M inside M∪C
// reaches every vertex of M∪C.
func (s *state) checkFixpoint(l *problemLists, retention bool) error {
	k := int32(s.p.k)
	for v := int32(0); v < int32(s.p.n); v++ {
		st := s.status[v]
		a, d := statusCounts(s, l.adj[v]), statusCounts(s, l.dissim[v])
		if deg := a[statusM] + a[statusC]; inMC(st) && deg < k {
			return fmt.Errorf("v=%d with status %d has %d neighbours in M∪C, below k=%d", v, st, deg, k)
		}
		if (st == statusC || st == statusE) && d[statusM] > 0 {
			return fmt.Errorf("v=%d with status %d is dissimilar to M", v, st)
		}
		if retention && st == statusC && d[statusC] == 0 && a[statusM] >= k {
			return fmt.Errorf("similarity-free candidate %d has %d neighbours in M", v, a[statusM])
		}
	}
	mc := listMembers(s, statusM, statusC)
	m := listMembers(s, statusM)
	if len(m) == 0 {
		return nil
	}
	seen := make([]bool, s.p.n)
	seen[m[0]] = true
	stack := []int32{m[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range l.adj[u] {
			if inMC(s.status[nb]) && !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for _, v := range mc {
		if !seen[v] {
			return fmt.Errorf("v=%d with status %d is not reachable from M inside M∪C", v, s.status[v])
		}
	}
	return nil
}
