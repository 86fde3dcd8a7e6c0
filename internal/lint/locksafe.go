package lint

import (
	"go/ast"
	"go/types"
)

// LockSafe flags code that, while holding a struct-field mutex (the
// chord.Node.mu pattern), either
//
//   - performs a transport/RPC operation (Endpoint.Send/Call/CallWithin/Close,
//     Request.Reply/ReplyError) — directly, or through any call whose
//     phase-1 summary says it transitively reaches one: on the
//     simulated transport the callee can run inline and re-enter the
//     node (deadlock); on UDP it turns a hot in-memory section into a
//     tail-latency hazard; or
//   - calls a function whose summary says it (transitively) acquires
//     a mutex already held on the same variable: a guaranteed
//     self-deadlock, since sync.Mutex is not reentrant.
//
// The protocol style this repo inherits from the paper's prototype is
// copy-out: lock, snapshot the state you need, unlock, then talk to the
// network. LockSafe machine-checks that style. Since v2 the check is
// interprocedural: a send hidden behind a helper (chord.Node.send,
// maan.service.send) is seen through the call summaries computed over
// the whole load, so wrapping a transport call no longer hides it.
//
// Held state is tracked per function body, flow-insensitively inside
// branches (each branch sees a copy). Function literals are analyzed
// with an empty held set: callbacks run later, not under the caller's
// lock. Locally-declared mutexes (plain `var mu sync.Mutex` inside a
// function) are intentionally not tracked; the invariant is about
// long-lived node state.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "flags transport calls and re-locking calls made while a node mutex is held (summary-driven, interprocedural)",
	Run:  runLockSafe,
}

// transportCallNames are the methods of the transport/rpcudp packages
// that must never run under a node lock. Scheduling helpers
// (Clock.AfterRun/Every, Timer.Stop) are excluded: they only enqueue or
// dequeue work.
var transportCallNames = map[string]bool{
	"Send": true, "Call": true, "CallWithin": true, "Close": true,
	"Reply": true, "ReplyError": true,
}

func runLockSafe(pass *Pass) {
	for _, name := range []string{"transport", "rpcudp", "sim", "lint"} {
		if pkgPathMatches(pass.Pkg.Path(), name) {
			return // the transport's own internals lock around their own I/O
		}
	}
	w := &lockWalker{pass: pass, onCall: lockSafeCall(pass), reportDoubleLock: true}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.stmts(fd.Body.List, map[string]bool{})
		}
	}
}

// lockSafeCall checks one call made while at least one tracked mutex
// is held.
func lockSafeCall(pass *Pass) func(call *ast.CallExpr, held map[string]bool) {
	return func(call *ast.CallExpr, held map[string]bool) {
		// Direct transport/RPC operation under a lock.
		fn := calleeFunc(pass.Info, call)
		if fn != nil && transportCallNames[fn.Name()] {
			path := funcPkgPath(fn)
			if pkgPathMatches(path, "transport") || pkgPathMatches(path, "rpcudp") {
				pass.Reportf(call.Pos(), "%s.%s while holding %s: never block on the network under a node lock (copy state out, unlock, then send)", path, fn.Name(), heldNames(held))
				return
			}
		}

		sum := pass.Sums.OfCall(pass.Info, call)
		if sum == nil {
			return
		}

		// A callee whose summary transitively reaches the transport.
		if sum.Effects.Has(EffSend) {
			pass.Reportf(call.Pos(), "call to %s while holding %s: it transitively performs a transport operation (copy state out, unlock, then call it)", calleeLabel(pass.Info, call), heldNames(held))
			return
		}

		// A callee that (transitively) re-acquires a held mutex on the
		// same variable.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				for field := range sum.Locks {
					if held[base.Name+"."+field] {
						pass.Reportf(call.Pos(), "%s.%s acquires %s.%s which is already held: self-deadlock", base.Name, sel.Sel.Name, base.Name, field)
						return
					}
				}
			}
		}
	}
}

// calleeLabel renders a call target for diagnostics ("n.send",
// "helper").
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return base.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "function value"
}

// lockTarget reports whether n is a call recv.<field>.Lock() or
// .RLock() on a sync mutex field of the receiver, returning the field
// name.
func lockTarget(info *types.Info, n ast.Node, recv string) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return "", false
	}
	target, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || !isSyncMutex(info.TypeOf(target)) {
		return "", false
	}
	base, ok := ast.Unparen(target.X).(*ast.Ident)
	if !ok || base.Name != recv {
		return "", false
	}
	return target.Sel.Name, true
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walkSkippingFuncLits visits every node in root except the bodies of
// function literals.
func walkSkippingFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockWalker tracks held mutexes through a statement list. It owns the
// Lock/Unlock bookkeeping; when any tracked mutex is held it hands
// every other call to onCall, so locksafe and hooklock share one
// held-state engine and differ only in what they flag.
type lockWalker struct {
	pass   *Pass
	onCall func(call *ast.CallExpr, held map[string]bool)
	// reportDoubleLock makes the walker itself report re-Lock of a held
	// mutex; only locksafe sets it, so hooklock reuse does not
	// duplicate the finding.
	reportDoubleLock bool
}

// stmts walks a statement sequence, mutating held in place; branch
// bodies get copies so a lock released on an early-return path stays
// held on the fallthrough path.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range append(append([]ast.Expr{}, s.Rhs...), s.Lhs...) {
			w.expr(e, held)
		}
	case *ast.DeferStmt:
		// defer X.Unlock() keeps the lock held until return — for
		// analysis purposes the region below remains held, which is the
		// conservative (and usually intended) reading. Other deferred
		// calls are checked like normal calls: they run while any
		// still-held locks are held only if the function returns with
		// them held, which the in-line check approximates.
		if !w.isUnlock(s.Call) {
			w.expr(s.Call, held)
		}
	case *ast.GoStmt:
		// The spawned function runs concurrently, not under our locks.
		w.exprFresh(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := copyHeld(held)
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, copyHeld(held))
				}
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// No calls of interest (DeclStmt initializers with calls are
		// rare in this codebase; AssignStmt covers the common form).
	}
}

// expr checks one expression tree under the current held set, updating
// it for Lock/Unlock calls.
func (w *lockWalker) expr(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.exprFresh(n)
			return false
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
}

// exprFresh analyzes a deferred-execution function body (func literal,
// go statement) with no locks held.
func (w *lockWalker) exprFresh(e ast.Expr) {
	if fl, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		w.stmts(fl.Body.List, map[string]bool{})
		return
	}
	w.expr(e, map[string]bool{})
}

func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	return isSyncMutex(w.pass.Info.TypeOf(sel.X))
}

func (w *lockWalker) call(call *ast.CallExpr, held map[string]bool) {
	// Lock/unlock bookkeeping on tracked (field-of-identifier) mutexes.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isSyncMutex(w.pass.Info.TypeOf(sel.X)) {
		name := sel.Sel.Name
		key, tracked := mutexKey(sel.X)
		switch name {
		case "Lock", "RLock":
			if tracked {
				if held[key] && w.reportDoubleLock {
					w.pass.Reportf(call.Pos(), "%s.%s while %s is already held: sync mutexes are not reentrant", key, name, key)
				}
				held[key] = true
			}
		case "Unlock", "RUnlock":
			if tracked {
				delete(held, key)
			}
		}
		return
	}
	if len(held) == 0 {
		return
	}
	w.onCall(call, held)
}

// mutexKey returns the tracking key for a mutex expression. Only
// field-of-identifier selectors (n.mu) are tracked; bare identifiers
// (function-local mutexes) are not.
func mutexKey(x ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	return base.Name + "." + sel.Sel.Name, true
}

func heldNames(held map[string]bool) string {
	var names []string
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return names[0]
	}
	// Deterministic enough for diagnostics: sort tiny slice.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	out := names[0]
	for _, n := range names[1:] {
		out += ", " + n
	}
	return out
}
