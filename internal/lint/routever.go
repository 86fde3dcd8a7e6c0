package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RouteVer guards the routing view's version discipline (DESIGN.md
// §16). chord.Node publishes its routing state as an immutable
// *chord.Routing whose Version moves exactly when the content does, and
// the DAT layer memoises parent selection on that Version — so one
// write that bypasses the mutators (an in-place finger update, a
// direct swap of Node.rt) silently serves stale parents. The analyzer
// flags, in every package,
//
//   - an assignment to a chord.Node field of type *Routing, or a
//     Store/Swap/CompareAndSwap on its atomic.Pointer[Routing] (the
//     view published to lock-free readers), and
//   - a write to a chord.Routing field, or to an element of one of its
//     slices (assignment, ++/--, copy destination, append base),
//
// unless the enclosing function is a designated mutator: a function in
// package chord whose doc comment carries
//
//	//datlint:routever-mutator
//
// and whose name ends in Locked (the state is guarded by Node.mu; a
// mutator that does not say so in its name is itself flagged).
// Composite literals are not writes: building a fresh Routing is how a
// view comes to exist.
//
// A Routing field declared under
//
//	//datlint:routever-derived
//
// is a function of the view's other fields, computed when the view is
// published. It may be written in publishLocked only — not even by the
// other mutators, which publish through it: a second writer is a second
// definition of what the field means.
var RouteVer = &Analyzer{
	Name: "routever",
	Doc:  "flags writes to chord routing state (Node's *Routing, Routing fields/elements) outside the designated …Locked mutators, and writes to a view's derived fields outside publishLocked",
	Run:  runRouteVer,
}

const (
	chordPkgName       = "chord"
	routeMutatorPragma = "routever-mutator"
	routeDerivedPragma = "routever-derived"
	routePublisher     = "publishLocked"
)

// routeWrites checks the writes of one function body.
type routeWrites struct {
	pass *Pass
	// mutator: the function is a designated mutator, so only writes to
	// derived fields are findings.
	mutator bool
	derived map[types.Object]bool
}

// derivedRouteFields returns the fields of the pass's Routing struct
// declared under the derived pragma. They are unexported, so only the
// package that declares Routing can write them and has to know them.
func derivedRouteFields(pass *Pass) map[types.Object]bool {
	derived := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Routing" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !groupHasPragma(field.Doc, routeDerivedPragma) && !groupHasPragma(field.Comment, routeDerivedPragma) {
						continue
					}
					for _, name := range field.Names {
						derived[pass.Info.Defs[name]] = true
					}
				}
			}
		}
	}
	return derived
}

func runRouteVer(pass *Pass) {
	inChord := pkgPathMatches(pass.Pkg.Path(), chordPkgName)
	var derived map[types.Object]bool
	if inChord {
		derived = derivedRouteFields(pass)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := routeWrites{pass: pass, derived: derived}
			if groupHasPragma(fd.Doc, routeMutatorPragma) {
				switch {
				case !inChord:
					pass.Reportf(fd.Name.Pos(), "%s is marked a routing mutator outside package chord; only chord may write routing state", fd.Name.Name)
				case !strings.HasSuffix(fd.Name.Name, "Locked"):
					pass.Reportf(fd.Name.Pos(), "routing mutator %s must be a …Locked function: routing state is guarded by Node.mu", fd.Name.Name)
				case fd.Name.Name == routePublisher:
					continue // the publisher: every write allowed
				default:
					w.mutator = true // designated mutator: all but the derived fields
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						w.check(lhs)
					}
				case *ast.IncDecStmt:
					w.check(s.X)
				case *ast.CallExpr:
					switch fun := ast.Unparen(s.Fun).(type) {
					case *ast.Ident:
						if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && len(s.Args) > 0 && (b.Name() == "copy" || b.Name() == "append") {
							w.check(s.Args[0])
						}
					case *ast.SelectorExpr:
						if !w.mutator {
							checkViewStore(pass, fun)
						}
					}
				}
				return true
			})
		}
	}
}

// check reports e if writing to it writes routing state: e selects
// (possibly through indexing, slicing or dereference) a field of
// chord.Routing, or is itself a chord.Node field holding the view.
func (w routeWrites) check(e ast.Expr) {
	pass := w.pass
	direct := true // still at the written expression itself, not a base of it
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e, direct = x.X, false
		case *ast.SliceExpr:
			e, direct = x.X, false
		case *ast.StarExpr:
			e, direct = x.X, false
		case *ast.SelectorExpr:
			sel := pass.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			switch recv := chordNamed(sel.Recv()); {
			case recv == "Routing" && w.derived[sel.Obj()]:
				pass.Reportf(x.Sel.Pos(), "write to derived field chord.Routing.%s outside %s: it is a function of the view's content, computed once when the view is published", x.Sel.Name, routePublisher)
				return
			case w.mutator && (recv == "Routing" || recv == "Node"):
				return
			case recv == "Routing":
				pass.Reportf(x.Sel.Pos(), "write to chord.Routing.%s outside a routing mutator: a published view is immutable and Version must move with the content (use a //datlint:routever-mutator …Locked setter)", x.Sel.Name)
				return
			case recv == "Node" && direct && chordNamed(sel.Type()) == "Routing":
				pass.Reportf(x.Sel.Pos(), "assignment to chord.Node.%s outside a routing mutator: the view is swapped only by the designated …Locked setters, which bump Version", x.Sel.Name)
				return
			}
			e, direct = x.X, false
		default:
			return
		}
	}
}

// checkViewStore reports call if it writes a chord.Node's published
// view: a Store, Swap or CompareAndSwap on a Node field of type
// atomic.Pointer[Routing].
func checkViewStore(pass *Pass, call *ast.SelectorExpr) {
	switch call.Sel.Name {
	case "Store", "Swap", "CompareAndSwap":
	default:
		return
	}
	field, ok := ast.Unparen(call.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	sel := pass.Info.Selections[field]
	if sel == nil || sel.Kind() != types.FieldVal || chordNamed(sel.Recv()) != "Node" {
		return
	}
	named, ok := sel.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Pointer" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return
	}
	if args := named.TypeArgs(); args.Len() == 1 && chordNamed(args.At(0)) == "Routing" {
		pass.Reportf(call.Sel.Pos(), "%s on chord.Node.%s outside a routing mutator: the view is published only by the designated …Locked setters, which bump Version", call.Sel.Name, field.Sel.Name)
	}
}

// chordNamed returns the name of the chord-package named type t is (or
// points to), "" otherwise.
func chordNamed(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pkgPathMatches(obj.Pkg().Path(), chordPkgName) {
		return ""
	}
	return obj.Name()
}
