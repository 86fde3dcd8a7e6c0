package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is phase 1 of the two-phase datlint pipeline: before any
// analyzer runs, ComputeSummaries walks every loaded package and
// computes a call summary per function — which effects the function
// (transitively) has, and which receiver mutex fields it acquires.
// Phase 2 analyzers (locksafe, detorder, hooklock, goroleak) consult
// the summaries through Pass.Sums instead of re-deriving call graphs,
// which is what makes them interprocedural: a send hidden two helpers
// deep looks exactly like a direct Endpoint.Send.
//
// Summaries are facts keyed by types.Object (*types.Func). LoadModule
// type-checks module packages from source in dependency order sharing
// one importer, so the object an importing package sees for
// chord.(*Node).Lookup is identical to the one in chord's own package
// — lookups work across package boundaries with no name mangling.

// Effect is a bitmask of the behaviors a function may (transitively)
// exhibit. Summaries are conservative over static call edges: an
// effect bit means "some execution path can do this", never "every
// path does".
type Effect uint16

// Effect bits.
const (
	// EffSend performs a transport/RPC operation
	// (Endpoint.Send/Call/CallWithin/Close, Request.Reply/ReplyError).
	EffSend Effect = 1 << iota
	// EffHook fires an obs hooks-struct callback or a transport.Tap.
	EffHook
	// EffEmit writes human- or trace-visible output (fmt.Print/Fprint
	// family); iteration order reaching an emit is trace-visible.
	EffEmit
	// EffRand draws from math/rand or math/rand/v2.
	EffRand
	// EffClock reads or waits on the wall clock (time.Now, time.Sleep,
	// timers).
	EffClock
	// EffBlock may block on a channel or sync primitive
	// (send/receive/select, WaitGroup.Wait, Cond.Wait).
	EffBlock
	// EffShutdown observes lifecycle control: receives/selects on a
	// channel, ranges over one, sends on one, calls Context.Done/Err
	// or WaitGroup.Done. A goroutine with this bit is tied to its
	// owner; one without it has no visible way to be stopped.
	EffShutdown
	// EffUnknown called through an interface method or an untracked
	// function value: effects are unknowable from the source.
	EffUnknown
)

// Has reports whether e contains every bit of f.
func (e Effect) Has(f Effect) bool { return e&f == f }

// String renders the bitmask for diagnostics and tests.
func (e Effect) String() string {
	names := []struct {
		bit  Effect
		name string
	}{
		{EffSend, "send"}, {EffHook, "hook"}, {EffEmit, "emit"},
		{EffRand, "rand"}, {EffClock, "clock"}, {EffBlock, "block"},
		{EffShutdown, "shutdown"}, {EffUnknown, "unknown"},
	}
	var parts []string
	for _, n := range names {
		if e&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Summary is the per-function fact record.
type Summary struct {
	// Effects the function may transitively exhibit.
	Effects Effect
	// Locks holds the receiver mutex field names the function acquires,
	// directly or through calls to methods on the same receiver
	// ("mu" for n.mu.Lock() anywhere under (n *Node) methods).
	Locks map[string]bool
}

func (s *Summary) lock(field string) {
	if s.Locks == nil {
		s.Locks = map[string]bool{}
	}
	s.Locks[field] = true
}

// Summaries indexes the facts computed over a load.
type Summaries struct {
	funcs map[*types.Func]*Summary
	lits  map[*ast.FuncLit]*Summary
	// litsOf maps a local function-valued variable to the literals
	// assigned to it, so `h := func(){...}; h()` resolves.
	litsOf map[types.Object][]*ast.FuncLit
}

// Of returns the summary recorded for a function object, or nil if the
// object is not a function checked from source in this load.
func (s *Summaries) Of(obj types.Object) *Summary {
	if s == nil {
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return s.funcs[fn]
}

// OfLit returns the summary of a function literal in the loaded source.
func (s *Summaries) OfLit(lit *ast.FuncLit) *Summary {
	if s == nil {
		return nil
	}
	return s.lits[lit]
}

// LitsOf returns the function literals a local variable is known to
// hold.
func (s *Summaries) LitsOf(obj types.Object) []*ast.FuncLit {
	if s == nil || obj == nil {
		return nil
	}
	return s.litsOf[obj]
}

// OfCall resolves a call expression to the summary of its static
// callee: a named function or method, a function literal invoked in
// place, or a local variable holding known literals (their summaries
// are unioned). Returns nil when the callee cannot be resolved.
func (s *Summaries) OfCall(info *types.Info, call *ast.CallExpr) *Summary {
	if s == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return s.lits[fun]
	case *ast.Ident:
		if lits := s.litsOf[info.Uses[fun]]; len(lits) > 0 {
			merged := &Summary{}
			for _, l := range lits {
				if ls := s.lits[l]; ls != nil {
					merged.Effects |= ls.Effects
					for f := range ls.Locks {
						merged.lock(f)
					}
				}
			}
			return merged
		}
	}
	if fn := calleeFunc(info, call); fn != nil {
		return s.funcs[fn]
	}
	return nil
}

// sumUnit is one function body being summarized: a declaration or a
// literal.
type sumUnit struct {
	sum  *Summary
	body *ast.BlockStmt
	info *types.Info
	// recv is the receiver identifier for methods (and for literals,
	// the enclosing method's receiver — captured by reference), used
	// for same-receiver lock propagation.
	recv  string
	edges []sumEdge
}

// sumEdge is a static call edge whose callee may have a summary of its
// own.
type sumEdge struct {
	callee   *types.Func  // named callee, or
	lit      *ast.FuncLit // literal invoked in place / via a local var
	sameRecv bool         // the call is recv.Method(...) on the unit's receiver
}

// effPropagated are the bits that flow from callee to caller. Locks
// flow separately and only across same-receiver calls.
const effPropagated = EffSend | EffHook | EffEmit | EffRand | EffClock |
	EffBlock | EffShutdown | EffUnknown

// ComputeSummaries runs phase 1 over the loaded packages: direct
// effect extraction per function body, then a bottom-up fixpoint over
// static call edges. Function literals get their own summaries; their
// effects do not leak into the enclosing function (the body runs
// later) unless the literal is invoked where it stands.
func ComputeSummaries(pkgs []*Package) *Summaries {
	sums := &Summaries{
		funcs:  map[*types.Func]*Summary{},
		lits:   map[*ast.FuncLit]*Summary{},
		litsOf: map[types.Object][]*ast.FuncLit{},
	}
	var units []*sumUnit
	for _, pkg := range pkgs {
		registerHookVars(pkg.Info, pkg.Files)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				recv := ""
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					recv = fd.Recv.List[0].Names[0].Name
				}
				u := &sumUnit{sum: &Summary{}, body: fd.Body, info: pkg.Info, recv: recv}
				sums.funcs[fn] = u.sum
				units = append(units, u)
				// Nested literals become their own units, inheriting
				// the receiver name for lock attribution.
				collectLitUnits(fd.Body, pkg.Info, recv, sums, &units)
			}
		}
	}
	for _, u := range units {
		extractDirect(u, sums)
	}
	// Bottom-up propagation to a fixpoint. Cycles (recursion, mutual
	// recursion) converge because effects only accumulate.
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			for _, e := range u.edges {
				var cs *Summary
				switch {
				case e.callee != nil:
					cs = sums.funcs[e.callee]
				case e.lit != nil:
					cs = sums.lits[e.lit]
				}
				if cs == nil {
					continue
				}
				if add := cs.Effects & effPropagated &^ u.sum.Effects; add != 0 {
					u.sum.Effects |= add
					changed = true
				}
				if e.sameRecv {
					for field := range cs.Locks {
						if !u.sum.Locks[field] {
							u.sum.lock(field)
							changed = true
						}
					}
				}
			}
		}
	}
	return sums
}

// collectLitUnits registers every function literal under root as a
// summary unit and records local variable -> literal bindings.
func collectLitUnits(root ast.Node, info *types.Info, recv string, sums *Summaries, units *[]*sumUnit) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			u := &sumUnit{sum: &Summary{}, body: n.Body, info: info, recv: recv}
			sums.lits[n] = u.sum
			*units = append(*units, u)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					sums.litsOf[obj] = append(sums.litsOf[obj], lit)
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				lit, ok := ast.Unparen(v).(*ast.FuncLit)
				if !ok || i >= len(n.Names) {
					continue
				}
				if obj := info.Defs[n.Names[i]]; obj != nil {
					sums.litsOf[obj] = append(sums.litsOf[obj], lit)
				}
			}
		}
		return true
	})
}

// extractDirect records a unit's own effects and its outgoing call
// edges, skipping nested literal bodies (those are separate units) and
// `go` launch sites (the spawned body's effects are the goroutine's,
// not the caller's — goroleak inspects launch sites itself).
func extractDirect(u *sumUnit, sums *Summaries) {
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested literal bodies are their own units; walking starts
			// at u.body so the owning literal itself is never revisited.
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.SendStmt:
			u.sum.Effects |= EffBlock | EffShutdown
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				u.sum.Effects |= EffBlock | EffShutdown
			}
		case *ast.SelectStmt:
			u.sum.Effects |= EffShutdown
			if !selectHasDefault(n) {
				u.sum.Effects |= EffBlock
			}
		case *ast.RangeStmt:
			if t := u.info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					u.sum.Effects |= EffBlock | EffShutdown
				}
			}
		case *ast.CallExpr:
			if goCalls[n] {
				return true
			}
			classifyCall(u, n, sums)
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// classifyCall folds one call site into the unit: a direct effect, a
// lock acquisition, or a call edge to resolve during propagation.
func classifyCall(u *sumUnit, call *ast.CallExpr, sums *Summaries) {
	// Receiver mutex Lock/RLock.
	if u.recv != "" {
		if field, ok := lockTarget(u.info, call, u.recv); ok {
			u.sum.lock(field)
			return
		}
	}

	// A literal invoked in place: its effects happen here.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		u.edges = append(u.edges, sumEdge{lit: lit})
		return
	}

	// A call through a local variable holding known literals.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if lits := sums.litsOf[u.info.Uses[id]]; len(lits) > 0 {
			for _, l := range lits {
				u.edges = append(u.edges, sumEdge{lit: l})
			}
			return
		}
	}

	// A call through an obs hooks-struct field (directly or via the
	// `if h := n.cfg.Obs.X; h != nil { h(...) }` idiom — the idiom's
	// h-ident resolves through hookVars in the analyzers; here the
	// direct selector form).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isHookFieldSel(u.info, sel) {
		u.sum.Effects |= EffHook
		return
	}

	fn := calleeFunc(u.info, call)
	if fn == nil {
		// Untracked function value (parameter, struct field):
		// conservatively unknown. The hook idiom's local h is the one
		// common ident-call shape; it was handled above when bound to
		// a literal, and hook fields bound to locals are recognized
		// below via hookVarCalls in extract-time detection.
		if isHookVarCall(u.info, call) {
			u.sum.Effects |= EffHook
			return
		}
		u.sum.Effects |= EffUnknown
		return
	}
	path := funcPkgPath(fn)
	name := fn.Name()
	switch {
	case transportCallNames[name] && (pkgPathMatches(path, "transport") || pkgPathMatches(path, "rpcudp")):
		u.sum.Effects |= EffSend
	case name == "Message" && pkgPathMatches(path, "transport"):
		// transport.Tap / TapFunc observation callback.
		u.sum.Effects |= EffHook
	case path == "time" && bannedTimeFuncs[name]:
		u.sum.Effects |= EffClock
	case path == "math/rand" || path == "math/rand/v2":
		u.sum.Effects |= EffRand
	case path == "context" && (name == "Done" || name == "Err"):
		u.sum.Effects |= EffShutdown
	case path == "sync" && name == "Done":
		u.sum.Effects |= EffShutdown
	case path == "sync" && name == "Wait":
		u.sum.Effects |= EffBlock
	case path == "fmt" && strings.HasPrefix(name, "Fprint"),
		path == "fmt" && strings.HasPrefix(name, "Print"):
		u.sum.Effects |= EffEmit
	case isInterfaceMethod(fn):
		// Dynamic dispatch with no known body: conservative unknown.
		u.sum.Effects |= EffUnknown
	default:
		e := sumEdge{callee: fn}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && u.recv != "" {
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && base.Name == u.recv {
				e.sameRecv = true
			}
		}
		u.edges = append(u.edges, e)
	}
}

// isInterfaceMethod reports whether fn is declared on an interface
// type (so a call through it dispatches dynamically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// isHookFieldSel reports whether sel selects a callback field of an
// obs hooks struct (a struct named *Hooks declared in a package whose
// path ends in "obs").
func isHookFieldSel(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pkgPathMatches(obj.Pkg().Path(), "obs") &&
		strings.HasSuffix(obj.Name(), "Hooks")
}

// isHookVarCall reports whether the call invokes a local variable that
// was assigned from a hooks-struct field — the repo's standard
// `if h := n.cfg.Obs.X; h != nil { h(...) }` idiom. The variable's
// declaration is found through its Uses->Defs link and matched against
// a single-assignment from a hook field selector.
func isHookVarCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	return hookVarObjs(info)[obj]
}

// hookVarCache records, per type-checked Info, the local variable
// objects assigned from obs hooks-struct fields. ComputeSummaries
// fills it via registerHookVars before any analyzer consults it.
var hookVarCache = map[*types.Info]map[types.Object]bool{}

func hookVarObjs(info *types.Info) map[types.Object]bool {
	if set, ok := hookVarCache[info]; ok {
		return set
	}
	set := map[types.Object]bool{}
	hookVarCache[info] = set
	return set
}

// registerHookVars scans a file for `h := <hook field>` bindings
// (including if-statement init clauses) and records the variable
// objects in the per-Info cache consulted by isHookVarCall.
func registerHookVars(info *types.Info, files []*ast.File) {
	set := hookVarObjs(info)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr)
				if !ok || !isHookFieldSel(info, sel) || i >= len(as.Lhs) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					set[obj] = true
				}
			}
			return true
		})
	}
}
