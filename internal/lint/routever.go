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
var RouteVer = &Analyzer{
	Name: "routever",
	Doc:  "flags writes to chord routing state (Node's *Routing, Routing fields/elements) outside the designated …Locked mutators",
	Run:  runRouteVer,
}

const (
	chordPkgName       = "chord"
	routeMutatorPragma = "routever-mutator"
)

func runRouteVer(pass *Pass) {
	inChord := pkgPathMatches(pass.Pkg.Path(), chordPkgName)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if groupHasPragma(fd.Doc, routeMutatorPragma) {
				switch {
				case !inChord:
					pass.Reportf(fd.Name.Pos(), "%s is marked a routing mutator outside package chord; only chord may write routing state", fd.Name.Name)
				case !strings.HasSuffix(fd.Name.Name, "Locked"):
					pass.Reportf(fd.Name.Pos(), "routing mutator %s must be a …Locked function: routing state is guarded by Node.mu", fd.Name.Name)
				default:
					continue // designated mutator: writes allowed
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						checkRouteWrite(pass, lhs)
					}
				case *ast.IncDecStmt:
					checkRouteWrite(pass, s.X)
				case *ast.CallExpr:
					switch fun := ast.Unparen(s.Fun).(type) {
					case *ast.Ident:
						if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && len(s.Args) > 0 && (b.Name() == "copy" || b.Name() == "append") {
							checkRouteWrite(pass, s.Args[0])
						}
					case *ast.SelectorExpr:
						checkViewStore(pass, fun)
					}
				}
				return true
			})
		}
	}
}

// checkRouteWrite reports e if writing to it writes routing state: e
// selects (possibly through indexing, slicing or dereference) a field
// of chord.Routing, or is itself a chord.Node field holding the view.
func checkRouteWrite(pass *Pass, e ast.Expr) {
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
