package lint

// summary.go is the interprocedural layer: a module-wide call graph
// with one Summary per declared function, computed by a bottom-up
// fixpoint over the call graph's strongly-connected components.
// Summaries answer, for any function in the module, "does calling this
// reach blocking I/O?", "which mutexes does it acquire, and in what
// order?", and "does its returned slice order depend on map
// iteration?" — so the analyzers built on top (lockheld, lockorder,
// maporder) see through call chains instead of relying on
// hand-maintained lists of module functions.
//
// Seeding and widening rules:
//
//   - may-block is seeded ONLY by standard-library leaves
//     (blockingFuncs: os/net/time/io primitives) — no module-local
//     function is ever named by hand; it inherits the property from
//     what it transitively calls.
//   - a call through an interface receiver is widened to may-block
//     when the method name is an I/O verb (blockingIfaceMethods): the
//     concrete target is unknown, so it must be assumed to reach a
//     file or socket.
//   - a call through a function value (stored closure, callback
//     parameter, method value) is widened to may-block
//     unconditionally: the target is unknown and may be anything.
//   - mutual recursion is handled by SCC widening: every member of a
//     cycle is iterated until the component's summaries stop changing,
//     so a property established anywhere in the cycle reaches every
//     member.
//
// Lock identity is canonical, not instance-based: a struct-field mutex
// is "pkgpath.Type.field", a package-level mutex "pkgpath.var", a
// local "funcKey$expr". Two instances of the same struct therefore
// share a key — acceptable for a lint (lock *order* between types is
// what deadlocks in practice) — and double-acquisition is only
// reported when the receiver instance demonstrably matches (same
// source expression or a package-level lock).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// commentHas reports whether a comment group contains the marker.
func commentHas(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	return strings.Contains(cg.Text(), marker)
}

// LockUse records one mutex a function acquires, directly or through
// its callees.
type LockUse struct {
	// Key is the canonical lock name ("krcore.Engine.mu").
	Key string
	// Display is the source expression at the direct acquisition site
	// ("e.mu"); propagated uses keep the canonical key as display.
	Display string
	// Write is true if any acquisition is a write Lock (not RLock).
	Write bool
	// IOLock marks locks whose field doc carries krlint:iolock.
	IOLock bool
	// Pos is the direct acquisition position (in the function that
	// performs it).
	Pos token.Pos
	// Via is the call chain from the summarized function to the direct
	// acquirer; nil for direct acquisitions.
	Via []string
}

// OrderEdge records "From was held while To was acquired".
type OrderEdge struct {
	From, To string
	// Pos is where the edge was established: the acquisition of To (or
	// the call that transitively acquires it).
	Pos token.Pos
	// Via is the call chain to the function that acquired To; nil for
	// edges established directly in the summarized function.
	Via []string
}

// Reacquire records a mutex acquired while demonstrably already held
// by the same goroutine — a self-deadlock on a non-reentrant mutex.
type Reacquire struct {
	Key     string
	Display string
	// Pos is the second acquisition (or the call leading to it);
	// FirstPos is where the lock was first taken.
	Pos, FirstPos token.Pos
	Via           []string
}

// Summary is the interprocedural abstract of one declared function.
type Summary struct {
	// Key is the function's funcKey; PkgPath the declaring package.
	Key     string
	PkgPath string
	// Pos is the function declaration position.
	Pos token.Pos

	// MayBlock reports whether calling the function can reach file or
	// network I/O, fsync, or sleep; BlockVia is a witness call chain
	// ending at the blocking leaf.
	MayBlock bool
	BlockVia []string
	// BlockParams lists declared-parameter indices (flattened, in
	// declaration order) of function-typed parameters this function may
	// call: whether those calls block depends on the argument, so the
	// verdict is deferred to each call site instead of widening the
	// function itself to may-block.
	BlockParams []int
	// CleanFuncResults lists function-typed result indices for which
	// every value this function returns is statically non-blocking to
	// call — a cleanup closure, say — so callers invoking the returned
	// value are not widened.
	CleanFuncResults []int

	// Acquires holds every lock the function may take, keyed by
	// canonical lock key.
	Acquires map[string]*LockUse
	// HeldOnExit holds locks acquired and still held on every return
	// path (a lock() helper); deferred unlocks count as released.
	HeldOnExit map[string]*LockUse
	// ReleasedOnEntry holds locks the function unlocks without having
	// acquired (an unlock() helper), keyed by canonical lock key.
	ReleasedOnEntry map[string]token.Pos

	// Edges are acquired-before facts; Reacquired are same-instance
	// double acquisitions.
	Edges      []OrderEdge
	Reacquired []Reacquire

	// MapOrderedResults lists result indices whose returned slice
	// order derives from map iteration without an intervening sort.
	MapOrderedResults []int
}

// Summaries is the module-wide summary table.
type Summaries struct {
	funcs  map[string]*Summary
	decls  map[string]*declInfo
	ioLock map[string]bool
	// nonBlockField holds canonical keys of func-typed struct fields
	// whose doc carries krlint:nonblocking: the field's documented
	// contract is that every value stored in it is non-blocking, so
	// calls through it are not widened.
	nonBlockField map[string]bool
}

type declInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
	key  string
}

// Of returns the summary for a funcKey, nil if the function is not
// declared in the analyzed module.
func (s *Summaries) Of(key string) *Summary {
	if s == nil {
		return nil
	}
	return s.funcs[key]
}

// Keys lists all summarized functions, sorted.
func (s *Summaries) Keys() []string {
	keys := make([]string, 0, len(s.funcs))
	for k := range s.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// IsIOLock reports whether the canonical lock key carries the
// krlint:iolock field marker.
func (s *Summaries) IsIOLock(key string) bool {
	if s == nil {
		return false
	}
	return s.ioLock[key]
}

// BuildSummaries computes the module-wide summary table over the given
// packages (duplicates by path are ignored). Deterministic: the result
// depends only on package paths and source, never on map iteration.
func BuildSummaries(pkgs []*Package) *Summaries {
	s := &Summaries{
		funcs:         map[string]*Summary{},
		decls:         map[string]*declInfo{},
		ioLock:        map[string]bool{},
		nonBlockField: map[string]bool{},
	}
	seen := map[string]bool{}
	var uniq []*Package
	for _, p := range pkgs {
		if p == nil || seen[p.Path] {
			continue
		}
		seen[p.Path] = true
		uniq = append(uniq, p)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].Path < uniq[j].Path })

	var keys []string
	for _, pkg := range uniq {
		s.collectIOLocks(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				f, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if f == nil {
					continue
				}
				key := funcKey(f)
				if _, dup := s.decls[key]; dup {
					continue // platform twins can't both be loaded; first wins
				}
				s.decls[key] = &declInfo{pkg: pkg, decl: fd, obj: f, key: key}
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)

	// Pre-pass: static call edges between declared functions, for the
	// SCC condensation only (the fixpoint re-reads bodies itself).
	edges := map[string][]string{}
	for _, key := range keys {
		di := s.decls[key]
		callees := map[string]bool{}
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := calleeFunc(di.pkg.Info, call); f != nil {
				ck := funcKey(f)
				if _, local := s.decls[ck]; local && !callees[ck] {
					callees[ck] = true
					edges[key] = append(edges[key], ck)
				}
			}
			return true
		})
		sort.Strings(edges[key])
	}

	// Bottom-up fixpoint: Tarjan emits SCCs callees-first, so by the
	// time a component is iterated every callee outside it is final.
	for _, comp := range tarjanSCC(keys, edges) {
		for changed := true; changed; {
			changed = false
			for _, key := range comp {
				next := s.computeEffects(s.decls[key])
				if !summarySig(next).equal(summarySig(s.funcs[key])) {
					s.funcs[key] = next
					changed = true
				} else {
					s.funcs[key] = next
				}
			}
		}
	}
	return s
}

// collectIOLocks records the canonical keys of marked struct fields:
// mutexes whose doc carries krlint:iolock, and func-typed fields whose
// doc carries krlint:nonblocking.
func (s *Summaries) collectIOLocks(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					ioLock := commentHas(f.Doc, "krlint:iolock") || commentHas(f.Comment, "krlint:iolock")
					nonBlock := commentHas(f.Doc, "krlint:nonblocking") || commentHas(f.Comment, "krlint:nonblocking")
					if !ioLock && !nonBlock {
						continue
					}
					for _, name := range f.Names {
						obj := pkg.Info.Defs[name]
						if obj == nil {
							continue
						}
						key := pkg.Types.Path() + "." + ts.Name.Name + "." + name.Name
						if ioLock && isMutex(obj.Type()) {
							s.ioLock[key] = true
						}
						if _, isFunc := obj.Type().Underlying().(*types.Signature); nonBlock && isFunc {
							s.nonBlockField[key] = true
						}
					}
				}
			}
		}
	}
}

// tarjanSCC returns the strongly-connected components of the keyed
// graph in reverse topological order (callees before callers), each
// component sorted.
func tarjanSCC(keys []string, edges map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, v := range keys {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comps
}

// computeEffects re-derives one function's summary from its body and
// the current summaries of its callees.
func (s *Summaries) computeEffects(di *declInfo) *Summary {
	out := &Summary{
		Key:             di.key,
		PkgPath:         di.pkg.Types.Path(),
		Pos:             di.decl.Pos(),
		Acquires:        map[string]*LockUse{},
		HeldOnExit:      map[string]*LockUse{},
		ReleasedOnEntry: map[string]token.Pos{},
	}
	ec := &effectCollector{pkg: di.pkg, sums: s, out: out, params: funcParamObjs(di.pkg, di.decl)}
	walkFuncBody(di.pkg, di.key, di.decl.Body, s, ec)
	ec.finish()
	out.CleanFuncResults = cleanFuncResults(di.pkg, s, di.decl, di.obj, ec.params)
	_, out.MapOrderedResults = mapOrderAnalyze(di.pkg, di.decl, s)
	return out
}

// summarySig renders the fixpoint-relevant part of a summary as a
// canonical string, for convergence detection.
type sigString string

func summarySig(s *Summary) sigString {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "block=%v|", s.MayBlock)
	for _, i := range s.BlockParams {
		fmt.Fprintf(&b, "bp=%d;", i)
	}
	b.WriteByte('|')
	for _, i := range s.CleanFuncResults {
		fmt.Fprintf(&b, "cfr=%d;", i)
	}
	b.WriteByte('|')
	for _, k := range sortedLockKeys(s.Acquires) {
		u := s.Acquires[k]
		fmt.Fprintf(&b, "acq=%s,w=%v;", k, u.Write)
	}
	b.WriteByte('|')
	for _, k := range sortedLockKeys(s.HeldOnExit) {
		fmt.Fprintf(&b, "exit=%s;", k)
	}
	b.WriteByte('|')
	rel := make([]string, 0, len(s.ReleasedOnEntry))
	for k := range s.ReleasedOnEntry {
		rel = append(rel, k)
	}
	sort.Strings(rel)
	for _, k := range rel {
		fmt.Fprintf(&b, "rel=%s;", k)
	}
	b.WriteByte('|')
	pairs := make([]string, 0, len(s.Edges))
	for _, e := range s.Edges {
		pairs = append(pairs, e.From+"->"+e.To)
	}
	sort.Strings(pairs)
	b.WriteString(strings.Join(pairs, ";"))
	b.WriteByte('|')
	for _, r := range s.Reacquired {
		fmt.Fprintf(&b, "re=%s@%d;", r.Key, r.Pos)
	}
	b.WriteByte('|')
	for _, i := range s.MapOrderedResults {
		fmt.Fprintf(&b, "mo=%d;", i)
	}
	return sigString(b.String())
}

func (a sigString) equal(b sigString) bool { return a == b }

func sortedLockKeys(m map[string]*LockUse) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- the shared statement-ordered lock walker ---

// heldLock is one mutex currently held during the walk.
type heldLock struct {
	key     string // canonical
	display string // source expression ("e.mu")
	write   bool
	iolock  bool
	pos     token.Pos
	// deferred marks locks whose unlock was registered with defer: held
	// for the rest of the body in source order, released at return.
	deferred bool
}

// heldSet tracks held locks, keyed by display expression so distinct
// instances of the same field stay distinct.
type heldSet struct {
	locks map[string]*heldLock
}

func newHeldSet() *heldSet { return &heldSet{locks: map[string]*heldLock{}} }

func (h *heldSet) clone() *heldSet {
	c := newHeldSet()
	for k, v := range h.locks {
		cp := *v
		c.locks[k] = &cp
	}
	return c
}

// sorted returns the held locks ordered by display name.
func (h *heldSet) sorted() []*heldLock {
	keys := make([]string, 0, len(h.locks))
	for k := range h.locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*heldLock, 0, len(keys))
	for _, k := range keys {
		out = append(out, h.locks[k])
	}
	return out
}

// lockEvents receives the walker's observations. Implementations must
// not retain the heldSet arguments.
type lockEvents interface {
	// acquire fires before l joins the held set; prior is what was held.
	acquire(l *heldLock, prior *heldSet)
	// reacquire fires instead of acquire when the same display
	// expression is already held.
	reacquire(l *heldLock, existing *heldLock)
	// strayRelease fires on an unlock with no matching held lock.
	strayRelease(key, display string, pos token.Pos)
	// call fires for every call expression evaluated in this frame;
	// deferred marks calls registered with defer (they run at return).
	call(call *ast.CallExpr, held *heldSet, deferred bool)
	// exit fires at each return statement and at the end of the body.
	exit(held *heldSet)
	// async returns the events to use inside goroutine bodies, whose
	// effects are concurrent, not the caller's; return nil to skip them.
	async() lockEvents
}

// lockWalker threads a held-lock set through one function body in
// source order, interpreting Lock/Unlock calls (including lock-helper
// calls, via callee summaries) and reporting everything else to its
// events.
type lockWalker struct {
	pkg   *Package
	fnKey string
	sums  *Summaries
	ev    lockEvents
}

// walkFuncBody runs the walker over one function body.
func walkFuncBody(pkg *Package, fnKey string, body *ast.BlockStmt, sums *Summaries, ev lockEvents) {
	w := &lockWalker{pkg: pkg, fnKey: fnKey, sums: sums, ev: ev}
	held := newHeldSet()
	w.block(body, held)
	ev.exit(held)
}

func (w *lockWalker) block(b *ast.BlockStmt, held *heldSet) {
	for _, stmt := range b.List {
		w.stmt(stmt, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held *heldSet) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if w.lockOp(call, held, false) {
				return
			}
		}
		w.expr(st.X, held)
	case *ast.DeferStmt:
		if w.lockOp(st.Call, held, true) {
			return
		}
		// The deferred call runs at return; its arguments evaluate now.
		for _, arg := range st.Call.Args {
			w.expr(arg, held)
		}
		w.ev.call(st.Call, held, true)
		if fl, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			w.block(fl.Body, held.clone())
		}
		// A deferred unlock-helper keeps its locks held (sticky) for the
		// rest of the body, released at return.
		if rel := w.calleeReleases(st.Call); len(rel) > 0 {
			for _, l := range held.sorted() {
				for _, k := range rel {
					if l.key == k {
						l.deferred = true
					}
				}
			}
		}
	case *ast.GoStmt:
		// The goroutine body runs without this frame's locks; its
		// argument expressions evaluate now.
		for _, arg := range st.Call.Args {
			w.expr(arg, held)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			if aev := w.ev.async(); aev != nil {
				aw := &lockWalker{pkg: w.pkg, fnKey: w.fnKey, sums: w.sums, ev: aev}
				fresh := newHeldSet()
				aw.block(fl.Body, fresh)
				aev.exit(fresh)
			}
		}
	case *ast.BlockStmt:
		w.block(st, held)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.block(st.Body, held.clone())
		if st.Else != nil {
			w.stmt(st.Else, held.clone())
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		w.block(st.Body, held.clone())
	case *ast.RangeStmt:
		w.expr(st.X, held)
		w.block(st.Body, held.clone())
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := held.clone()
				for _, s2 := range cc.Body {
					w.stmt(s2, h)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := held.clone()
				for _, s2 := range cc.Body {
					w.stmt(s2, h)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h := held.clone()
				for _, s2 := range cc.Body {
					w.stmt(s2, h)
				}
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.expr(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			w.expr(res, held)
		}
		w.ev.exit(held)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, held)
				return false
			}
			return true
		})
	}
}

// expr scans one expression for calls (and function literals that run
// synchronously as part of it).
func (w *lockWalker) expr(e ast.Expr, held *heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal that is merely stored or returned runs later,
			// possibly without these locks. Literals that execute now —
			// call arguments (sync.Once.Do bodies, sort comparators) and
			// immediately-invoked functions — are walked from their
			// CallExpr below.
			return false
		case *ast.CallExpr:
			w.ev.call(n, held, false)
			w.applyCalleeLocks(n, held)
			if fl, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				w.block(fl.Body, held.clone())
			}
			for _, arg := range n.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					w.block(fl.Body, held.clone())
				}
			}
		}
		return true
	})
}

// lockOp interprets Lock/Unlock calls on mutex receivers, returning
// whether it consumed the call. deferred marks defer statements.
func (w *lockWalker) lockOp(call *ast.CallExpr, held *heldSet, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recvT := w.pkg.Info.TypeOf(sel.X)
	if recvT == nil || !isMutex(recvT) {
		return false
	}
	key, display := w.lockKeyFor(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		l := &heldLock{
			key:     key,
			display: display,
			write:   sel.Sel.Name == "Lock",
			iolock:  w.sums.IsIOLock(key),
			pos:     call.Pos(),
		}
		if existing, ok := held.locks[display]; ok {
			w.ev.reacquire(l, existing)
			return true
		}
		w.ev.acquire(l, held)
		held.locks[display] = l
		return true
	case "Unlock", "RUnlock":
		if l, ok := held.locks[display]; ok {
			if deferred {
				l.deferred = true
			} else {
				delete(held.locks, display)
			}
		} else if !deferred {
			w.ev.strayRelease(key, display, call.Pos())
		} else {
			// defer x.Unlock() with nothing held at this point still
			// releases whatever is held at return; treat as stray so
			// unlock-helpers summarize correctly.
			w.ev.strayRelease(key, display, call.Pos())
		}
		return true
	case "TryLock", "TryRLock":
		// Held only if the result is true; skipped, as before.
		return true
	}
	return false
}

// applyCalleeLocks mutates the held set after a call per the callee's
// summary: lock helpers leave locks held, unlock helpers release them.
func (w *lockWalker) applyCalleeLocks(call *ast.CallExpr, held *heldSet) {
	f := calleeFunc(w.pkg.Info, call)
	if f == nil {
		return
	}
	cs := w.sums.Of(funcKey(f))
	if cs == nil {
		return
	}
	for _, k := range sortedLockKeys(cs.HeldOnExit) {
		u := cs.HeldOnExit[k]
		already := false
		for _, l := range held.sorted() {
			if l.key == k {
				already = true
			}
		}
		if already {
			continue
		}
		held.locks[k] = &heldLock{
			key:     k,
			display: k,
			write:   u.Write,
			iolock:  w.sums.IsIOLock(k),
			pos:     call.Pos(),
		}
	}
	if len(cs.ReleasedOnEntry) > 0 {
		for disp, l := range held.locks {
			if _, rel := cs.ReleasedOnEntry[l.key]; rel {
				delete(held.locks, disp)
			}
		}
	}
}

// calleeReleases returns the canonical keys a statically-resolved
// callee unlocks on entry (for deferred unlock helpers).
func (w *lockWalker) calleeReleases(call *ast.CallExpr) []string {
	f := calleeFunc(w.pkg.Info, call)
	if f == nil {
		return nil
	}
	cs := w.sums.Of(funcKey(f))
	if cs == nil || len(cs.ReleasedOnEntry) == 0 {
		return nil
	}
	keys := make([]string, 0, len(cs.ReleasedOnEntry))
	for k := range cs.ReleasedOnEntry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockKeyFor canonicalizes a mutex receiver expression.
func (w *lockWalker) lockKeyFor(recv ast.Expr) (key, display string) {
	display = exprString(recv)
	e := ast.Unparen(recv)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// pkgname.Var → package-level lock.
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := w.pkg.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + e.Sel.Name, display
			}
		}
		// x.field → field of x's named type.
		if xt := w.pkg.Info.TypeOf(e.X); xt != nil {
			if pkgPath, name, ok := namedName(xt); ok {
				if pkgPath == "" {
					return name + "." + e.Sel.Name, display
				}
				return pkgPath + "." + name + "." + e.Sel.Name, display
			}
		}
	case *ast.Ident:
		if v, ok := w.pkg.Info.Uses[e].(*types.Var); ok && !v.IsField() &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), display
		}
	}
	return w.fnKey + "$" + display, display
}

// --- effect collection (the events impl behind computeEffects) ---

// maxBlockVia caps witness chains in messages.
const maxBlockVia = 6

type effectCollector struct {
	pkg    *Package
	sums   *Summaries
	out    *Summary
	params map[types.Object]int
	exits  []map[string]*LockUse
}

func (c *effectCollector) acquire(l *heldLock, prior *heldSet) {
	c.recordAcquire(l)
	for _, h := range prior.sorted() {
		if h.key != l.key {
			c.out.Edges = append(c.out.Edges, OrderEdge{From: h.key, To: l.key, Pos: l.pos})
		}
	}
}

func (c *effectCollector) recordAcquire(l *heldLock) {
	if u, ok := c.out.Acquires[l.key]; ok {
		u.Write = u.Write || l.write
		return
	}
	c.out.Acquires[l.key] = &LockUse{
		Key: l.key, Display: l.display, Write: l.write, IOLock: l.iolock, Pos: l.pos,
	}
}

func (c *effectCollector) reacquire(l *heldLock, existing *heldLock) {
	c.recordAcquire(l)
	c.out.Reacquired = append(c.out.Reacquired, Reacquire{
		Key: l.key, Display: l.display, Pos: l.pos, FirstPos: existing.pos,
	})
}

func (c *effectCollector) strayRelease(key, display string, pos token.Pos) {
	if _, ok := c.out.ReleasedOnEntry[key]; !ok {
		c.out.ReleasedOnEntry[key] = pos
	}
}

func (c *effectCollector) call(call *ast.CallExpr, held *heldSet, deferred bool) {
	bc := classifyBlocking(c.pkg, c.sums, call, c.params)
	if bc.blocks && !c.out.MayBlock {
		c.out.MayBlock = true
		c.out.BlockVia = bc.via
	}
	for _, pi := range bc.params {
		if !containsInt(c.out.BlockParams, pi) {
			c.out.BlockParams = append(c.out.BlockParams, pi)
		}
	}
	f := calleeFunc(c.pkg.Info, call)
	if f == nil {
		return
	}
	cs := c.sums.Of(funcKey(f))
	if cs == nil {
		return
	}
	calleeKey := funcKey(f)
	// Locks the callee may take become locks this function may take,
	// and order edges against everything currently held.
	for _, k := range sortedLockKeys(cs.Acquires) {
		u := cs.Acquires[k]
		if _, ok := c.out.Acquires[k]; !ok {
			c.out.Acquires[k] = &LockUse{
				Key: k, Display: k, Write: u.Write, IOLock: u.IOLock, Pos: call.Pos(),
				Via: prependVia(calleeKey, u.Via),
			}
		} else if u.Write {
			c.out.Acquires[k].Write = true
		}
		for _, h := range held.sorted() {
			if h.key == k {
				// Transitive double acquisition: only when the instance
				// demonstrably matches — the callee is invoked on the
				// same receiver expression the held lock hangs off, or
				// the lock is package-level (one instance by construction).
				if sameInstanceCall(call, h) {
					c.out.Reacquired = append(c.out.Reacquired, Reacquire{
						Key: k, Display: h.display, Pos: call.Pos(), FirstPos: h.pos,
						Via: prependVia(calleeKey, u.Via),
					})
				}
				continue
			}
			c.out.Edges = append(c.out.Edges, OrderEdge{
				From: h.key, To: k, Pos: call.Pos(), Via: prependVia(calleeKey, u.Via),
			})
		}
	}
	// The callee's internal order edges propagate verbatim.
	for _, e := range cs.Edges {
		c.out.Edges = append(c.out.Edges, OrderEdge{
			From: e.From, To: e.To, Pos: call.Pos(), Via: prependVia(calleeKey, e.Via),
		})
	}
	_ = deferred
}

func (c *effectCollector) exit(held *heldSet) {
	snap := map[string]*LockUse{}
	for _, l := range held.sorted() {
		if l.deferred {
			continue // deferred unlock runs at return: released
		}
		snap[l.key] = &LockUse{Key: l.key, Display: l.display, Write: l.write, IOLock: l.iolock, Pos: l.pos}
	}
	c.exits = append(c.exits, snap)
}

func (c *effectCollector) async() lockEvents { return nil }

// finish intersects the exit-path held sets into HeldOnExit: only a
// lock held on every return path summarizes as held-on-exit, so
// conditionally-locking helpers never poison callers.
func (c *effectCollector) finish() {
	sort.Ints(c.out.BlockParams)
	if len(c.exits) == 0 {
		return
	}
	for k, u := range c.exits[0] {
		everywhere := true
		for _, ex := range c.exits[1:] {
			if _, ok := ex[k]; !ok {
				everywhere = false
				break
			}
		}
		if everywhere {
			c.out.HeldOnExit[k] = u
		}
	}
}

func prependVia(key string, via []string) []string {
	out := make([]string, 0, len(via)+1)
	out = append(out, key)
	out = append(out, via...)
	if len(out) > maxBlockVia {
		out = out[:maxBlockVia]
	}
	return out
}

// sameInstanceCall reports whether call's receiver expression matches
// the instance the held lock hangs off ("e.mu" held, "e.helper()"
// called), or the lock is package-level.
func sameInstanceCall(call *ast.CallExpr, h *heldLock) bool {
	if h.key == h.display || !strings.Contains(h.display, ".") {
		// Package-level or propagated lock: canonical key IS the instance.
		return h.key == h.display || !strings.Contains(h.key, "$")
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base := h.display[:strings.LastIndex(h.display, ".")]
	return exprString(sel.X) == base
}

// --- blocking-call classification, shared by summaries and lockheld ---

// blockClass is the verdict for one call or function value: it blocks
// outright, or it blocks exactly when one of the *enclosing* function's
// listed parameters is given a blocking argument (param-sensitivity).
type blockClass struct {
	name   string
	via    []string
	blocks bool
	params []int
}

// classifyBlocking decides whether one call expression may block.
// Module-local callees are decided by their summaries; standard-library
// leaves and the widening rules (interface I/O verbs, unresolvable
// function values) decide directly. Three shapes stay precise instead
// of widening: calls through the enclosing function's own
// function-typed parameters become a param-sensitive verdict resolved
// at each call site, calls through local variables bound to exactly one
// func literal are classified by that literal's body, and calls to
// context.CancelFunc values never block (cancellation only signals).
// params maps the enclosing function's function-typed parameter objects
// to their declared indices (nil when there are none).
func classifyBlocking(pkg *Package, sums *Summaries, call *ast.CallExpr, params map[types.Object]int) blockClass {
	return classifyCall(pkg, sums, call, params, map[*ast.FuncLit]bool{})
}

func classifyCall(pkg *Package, sums *Summaries, call *ast.CallExpr, params map[types.Object]int, visiting map[*ast.FuncLit]bool) blockClass {
	f := calleeFunc(pkg.Info, call)
	if f != nil {
		key := funcKey(f)
		if blockingFuncs[key] {
			return blockClass{name: key, via: []string{key}, blocks: true}
		}
		if fprintFuncs[key] && len(call.Args) > 0 {
			t := pkg.Info.TypeOf(call.Args[0])
			if t != nil {
				if pkgPath, tname, ok := namedName(t); ok && memoryWriters[pkgPath+"."+tname] {
					return blockClass{}
				}
			}
			return blockClass{name: key, via: []string{key}, blocks: true}
		}
		// Interface-dispatched I/O: the receiver's static type is an
		// interface and the method name is an I/O verb.
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) && blockingIfaceMethods[f.Name()] {
				return blockClass{name: funcIfaceKey(pkg, call, f), via: []string{"(interface)." + f.Name()}, blocks: true}
			}
		}
		// Module-local callee: its summary decides. A callee that blocks
		// only through its own function parameters is resolved here, by
		// classifying the arguments it is given.
		if cs := sums.Of(key); cs != nil {
			if cs.MayBlock {
				return blockClass{name: key, via: prependVia(key, cs.BlockVia), blocks: true}
			}
			var out blockClass
			for _, idx := range cs.BlockParams {
				if idx >= len(call.Args) {
					continue // variadic tail or conversion shape: no argument supplied
				}
				av := valueBlocks(pkg, sums, call.Args[idx], params, visiting)
				if av.blocks {
					return blockClass{name: key, via: prependVia(key, av.via), blocks: true}
				}
				out.params = append(out.params, av.params...)
			}
			if len(out.params) > 0 {
				out.name = key + " (passes a caller-supplied func)"
				out.via = []string{out.name}
			}
			return out
		}
		return blockClass{}
	}
	// No static callee: a conversion, a builtin, or a function value.
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return blockClass{}
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		// An immediately-invoked literal's body is walked inline by the
		// lock walker; the call itself proves nothing.
		_ = lit
		return blockClass{}
	}
	if isCancelFunc(pkg, fun) {
		return blockClass{}
	}
	if id, ok := fun.(*ast.Ident); ok {
		obj := pkg.Info.Uses[id]
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			return blockClass{}
		}
		if pi, isParam := params[obj]; isParam {
			// Calling the enclosing function's own parameter: the verdict
			// belongs to whoever supplies the argument.
			return blockClass{
				name:   id.Name + " (caller-supplied func)",
				via:    []string{id.Name + " (caller-supplied func)"},
				params: []int{pi},
			}
		}
		if lit := litBindings(pkg)[obj]; lit != nil {
			lc := funcLitBlocks(pkg, sums, lit, params, visiting)
			if lc.blocks {
				lc.name = id.Name
				lc.via = prependVia(id.Name, lc.via)
			}
			return lc
		}
		if cb, bound := callBindings(pkg)[obj]; bound && cleanCallResult(pkg, sums, cb) {
			return blockClass{}
		}
	}
	if nonBlockingField(pkg, sums, fun) {
		return blockClass{}
	}
	// Function value: target unknown, conservatively widened.
	disp := exprString(fun)
	return blockClass{name: disp + " (function value)", via: []string{disp + " (function value)"}, blocks: true}
}

// nonBlockingField reports whether the expression selects a func-typed
// struct field documented with the krlint:nonblocking contract.
func nonBlockingField(pkg *Package, sums *Summaries, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sl, ok := pkg.Info.Selections[sel]
	if !ok || sl.Kind() != types.FieldVal {
		return false
	}
	pkgPath, tname, ok := namedName(pkg.Info.TypeOf(sel.X))
	if !ok || pkgPath == "" {
		return false
	}
	return sums != nil && sums.nonBlockField[pkgPath+"."+tname+"."+sel.Sel.Name]
}

// valueBlocks classifies a function-typed argument expression: does
// *calling* this value block?
func valueBlocks(pkg *Package, sums *Summaries, arg ast.Expr, params map[types.Object]int, visiting map[*ast.FuncLit]bool) blockClass {
	arg = ast.Unparen(arg)
	if isCancelFunc(pkg, arg) {
		return blockClass{}
	}
	switch a := arg.(type) {
	case *ast.FuncLit:
		return funcLitBlocks(pkg, sums, a, params, visiting)
	case *ast.Ident:
		if a.Name == "nil" {
			return blockClass{}
		}
		obj := pkg.Info.Uses[a]
		if pi, isParam := params[obj]; isParam {
			return blockClass{params: []int{pi}}
		}
		if lit := litBindings(pkg)[obj]; lit != nil {
			return funcLitBlocks(pkg, sums, lit, params, visiting)
		}
		if cb, bound := callBindings(pkg)[obj]; bound && cleanCallResult(pkg, sums, cb) {
			return blockClass{}
		}
		if f, isFunc := obj.(*types.Func); isFunc {
			return funcValueBlocks(sums, f)
		}
	case *ast.SelectorExpr:
		if f, isFunc := pkg.Info.Uses[a.Sel].(*types.Func); isFunc {
			return funcValueBlocks(sums, f)
		}
		if nonBlockingField(pkg, sums, a) {
			return blockClass{}
		}
	}
	// Unknown value: widened, like any other function value.
	disp := exprString(arg)
	return blockClass{name: disp + " (function value)", via: []string{disp + " (function value)"}, blocks: true}
}

// funcValueBlocks classifies a named function or method used as a
// value, with the same rules a direct call would get — passing
// o.Similar as a callback must not be judged more harshly than calling
// it inline. The verdict must hold for *any* arguments the
// eventual caller supplies, so param-sensitive callees are widened to
// blocking here.
func funcValueBlocks(sums *Summaries, f *types.Func) blockClass {
	key := funcKey(f)
	if blockingFuncs[key] || fprintFuncs[key] {
		return blockClass{name: key, via: []string{key}, blocks: true}
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if blockingIfaceMethods[f.Name()] {
			return blockClass{name: key, via: []string{"(interface)." + f.Name()}, blocks: true}
		}
		return blockClass{} // interface method outside the I/O verbs: same as a direct call
	}
	if cs := sums.Of(key); cs != nil {
		if cs.MayBlock {
			return blockClass{name: key, via: prependVia(key, cs.BlockVia), blocks: true}
		}
		if len(cs.BlockParams) > 0 {
			return blockClass{name: key, via: []string{key + " (calls its func parameters)"}, blocks: true}
		}
		return blockClass{}
	}
	// Standard-library function outside the blocking leaves: a direct
	// call would be clean, so the value is too.
	if f.Pkg() != nil {
		return blockClass{}
	}
	return blockClass{name: key, via: []string{key}, blocks: true}
}

// funcLitBlocks classifies a func literal's body: any blocking call
// inside means calling the literal blocks. Nested literals are only
// entered through calls that reach them; visiting breaks closure
// cycles optimistically.
func funcLitBlocks(pkg *Package, sums *Summaries, lit *ast.FuncLit, params map[types.Object]int, visiting map[*ast.FuncLit]bool) blockClass {
	if visiting[lit] {
		return blockClass{}
	}
	visiting[lit] = true
	defer delete(visiting, lit)
	var out blockClass
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if out.blocks {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a literal merely defined here is not called here
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var c blockClass
		if inner, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked nested literal: its body runs here.
			c = funcLitBlocks(pkg, sums, inner, params, visiting)
		} else {
			c = classifyCall(pkg, sums, call, params, visiting)
		}
		if c.blocks {
			out = blockClass{name: c.name, via: prependVia("func literal", c.via), blocks: true}
			return false
		}
		out.params = append(out.params, c.params...)
		return true
	})
	return out
}

// isCancelFunc reports whether the expression's static type is
// context.CancelFunc — calling one signals cancellation and never
// performs I/O.
func isCancelFunc(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	pkgPath, name, ok := namedName(t)
	return ok && pkgPath == "context" && name == "CancelFunc"
}

// callBinding records a local variable bound to one result of one
// call: "stop := context.AfterFunc(...)", "_, release := f(...)".
type callBinding struct {
	call *ast.CallExpr
	idx  int
}

// litBindings indexes, per package, local variables bound to exactly
// one func literal and never reassigned or address-taken: calls
// through them are classified by the literal's body instead of being
// widened. Computed once per package, lazily.
func litBindings(pkg *Package) map[types.Object]*ast.FuncLit {
	computeBindings(pkg)
	return pkg.litBinds
}

// callBindings is the same index for variables bound to a call result,
// used to see whether the producing function promises a non-blocking
// value for that result position.
func callBindings(pkg *Package) map[types.Object]callBinding {
	computeBindings(pkg)
	return pkg.callBinds
}

func computeBindings(pkg *Package) {
	if pkg.litBinds != nil {
		return
	}
	lits := map[types.Object]*ast.FuncLit{}
	calls := map[types.Object]callBinding{}
	assigns := map[types.Object]int{}
	aliased := map[types.Object]bool{}
	bindOne := func(obj types.Object, rhs ast.Expr, callIdx int, fromCall *ast.CallExpr) {
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[obj] = lit
		} else if fromCall != nil {
			calls[obj] = callBinding{call: fromCall, idx: callIdx}
		} else if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			calls[obj] = callBinding{call: call, idx: 0}
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Multi-value form: a, b := f() binds each LHS to one
				// result index of the single call.
				var multi *ast.CallExpr
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					multi, _ = ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				}
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[id]
					if obj == nil {
						obj = pkg.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					assigns[obj]++
					if len(n.Lhs) == len(n.Rhs) {
						bindOne(obj, n.Rhs[i], 0, nil)
					} else if multi != nil {
						bindOne(obj, n.Rhs[0], i, multi)
					}
				}
			case *ast.ValueSpec:
				var multi *ast.CallExpr
				if len(n.Values) == 1 && len(n.Names) > 1 {
					multi, _ = ast.Unparen(n.Values[0]).(*ast.CallExpr)
				}
				for i, name := range n.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					if len(n.Values) > 0 {
						assigns[obj]++
					}
					if i < len(n.Values) && len(n.Values) == len(n.Names) {
						bindOne(obj, n.Values[i], 0, nil)
					} else if multi != nil {
						bindOne(obj, n.Values[0], i, multi)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil {
							aliased[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	usable := func(obj types.Object) bool {
		return assigns[obj] == 1 && !aliased[obj] && obj.Parent() != pkg.Types.Scope()
	}
	for obj := range lits {
		if !usable(obj) {
			delete(lits, obj) // reassigned, aliased, or package-level: unresolvable
		}
	}
	for obj := range calls {
		if !usable(obj) {
			delete(calls, obj)
		}
	}
	pkg.litBinds = lits
	pkg.callBinds = calls
}

// nonBlockingFuncResults names standard-library functions whose
// returned functions never block when called: context.AfterFunc's stop
// only unregisters the callback.
var nonBlockingFuncResults = map[string]bool{
	"context.AfterFunc": true,
}

// cleanCallResult reports whether the bound call's producer promises a
// non-blocking function value at the bound result index.
func cleanCallResult(pkg *Package, sums *Summaries, cb callBinding) bool {
	f := calleeFunc(pkg.Info, cb.call)
	if f == nil {
		return false
	}
	key := funcKey(f)
	if nonBlockingFuncResults[key] {
		return true
	}
	cs := sums.Of(key)
	return cs != nil && containsInt(cs.CleanFuncResults, cb.idx)
}

// cleanFuncResults computes, for one declaration, the function-typed
// result indices whose every returned value is statically non-blocking
// to call. Any return shape the analysis can't read (bare returns with
// named results, multi-value call returns) clears all candidates.
func cleanFuncResults(pkg *Package, sums *Summaries, fd *ast.FuncDecl, obj *types.Func, params map[types.Object]int) []int {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results() == nil || sig.Results().Len() == 0 {
		return nil
	}
	res := sig.Results()
	candidates := map[int]bool{}
	for i := 0; i < res.Len(); i++ {
		if _, isFunc := res.At(i).Type().Underlying().(*types.Signature); isFunc {
			candidates[i] = true
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	// Walk the body's own return statements (not nested literals').
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		if len(candidates) == 0 {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) != res.Len() {
			candidates = map[int]bool{} // bare or multi-value shape: give up
			return false
		}
		for i := range candidates {
			vb := valueBlocks(pkg, sums, ret.Results[i], params, map[*ast.FuncLit]bool{})
			if vb.blocks || len(vb.params) > 0 {
				delete(candidates, i)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, scan)
	out := make([]int, 0, len(candidates))
	for i := range candidates {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// funcParamObjs maps a declaration's function-typed parameter objects
// to their flattened declaration indices.
func funcParamObjs(pkg *Package, fd *ast.FuncDecl) map[types.Object]int {
	if fd.Type.Params == nil {
		return nil
	}
	params := map[types.Object]int{}
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
					params[obj] = idx
				}
			}
			idx++
		}
	}
	return params
}

// funcIfaceKey renders "w.Write" style names for interface calls.
func funcIfaceKey(pkg *Package, call *ast.CallExpr, f *types.Func) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return exprString(sel.X) + "." + f.Name()
	}
	return f.Name()
}

// Format renders a summary for krlint -summary.
func (s *Summary) Format(fset *token.FileSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Key)
	fmt.Fprintf(&b, "  declared at %s\n", fset.Position(s.Pos))
	if s.MayBlock {
		fmt.Fprintf(&b, "  may block: %s\n", strings.Join(s.BlockVia, " -> "))
	} else {
		fmt.Fprintf(&b, "  may block: no\n")
	}
	for _, i := range s.BlockParams {
		fmt.Fprintf(&b, "  blocks if parameter %d blocks (caller-supplied func is called)\n", i)
	}
	if len(s.Acquires) == 0 {
		fmt.Fprintf(&b, "  locks: none\n")
	} else {
		for _, k := range sortedLockKeys(s.Acquires) {
			u := s.Acquires[k]
			mode := "read"
			if u.Write {
				mode = "write"
			}
			via := ""
			if len(u.Via) > 0 {
				via = " via " + strings.Join(u.Via, " -> ")
			}
			io := ""
			if u.IOLock {
				io = " [iolock]"
			}
			fmt.Fprintf(&b, "  acquires %s (%s)%s%s\n", k, mode, io, via)
		}
	}
	for _, k := range sortedLockKeys(s.HeldOnExit) {
		fmt.Fprintf(&b, "  held on exit: %s\n", k)
	}
	rel := make([]string, 0, len(s.ReleasedOnEntry))
	for k := range s.ReleasedOnEntry {
		rel = append(rel, k)
	}
	sort.Strings(rel)
	for _, k := range rel {
		fmt.Fprintf(&b, "  releases on entry: %s\n", k)
	}
	seen := map[string]bool{}
	for _, e := range s.Edges {
		pair := e.From + " -> " + e.To
		if seen[pair] {
			continue
		}
		seen[pair] = true
		fmt.Fprintf(&b, "  lock order: %s\n", pair)
	}
	for _, i := range s.MapOrderedResults {
		fmt.Fprintf(&b, "  result %d: slice order derives from map iteration\n", i)
	}
	return b.String()
}
