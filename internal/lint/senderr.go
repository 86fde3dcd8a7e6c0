package lint

import (
	"go/ast"
	"go/types"
)

// SendErr flags discarded errors from transport send paths: a bare
// statement-position call to a transport/rpcudp Send method, or one
// whose results are assigned entirely to blanks (`_ = ep.Send(...)`),
// and a transport/rpcudp Call or CallWithin whose response callback
// ignores its error argument (blank, unnamed, or named but never read).
//
// Best-effort datagrams are a legitimate pattern — but a send error is
// the cheapest failure signal the stack gets (closed endpoint,
// unresolvable peer), and a Call's response error is the *only* place
// an ack timeout surfaces; dropping either on the floor hides dead
// neighbors from the peer-health record. Route sends through
// chord.Node.Send, which reports failures to it, handle callback errors
// where they arrive, or suppress a genuinely fire-and-forget site with
// //datlint:ignore senderr <reason>.
var SendErr = &Analyzer{
	Name: "senderr",
	Doc:  "flags discarded errors from transport/rpcudp send paths",
	Run:  runSendErr,
}

func runSendErr(pass *Pass) {
	for _, name := range []string{"transport", "rpcudp", "lint"} {
		if pkgPathMatches(pass.Pkg.Path(), name) {
			return // the transport's internals retry/log their own writes
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.CallExpr:
				checkCallCallback(pass, s)
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTransportSend(pass, call) {
					pass.Reportf(call.Pos(), "transport send error silently dropped; handle it (report it to the peer-health record) or assign and justify with //datlint:ignore senderr")
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
				if !ok || !isTransportSend(pass, call) {
					return true
				}
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true // at least one result is kept
					}
				}
				pass.Reportf(call.Pos(), "transport send error discarded with _; handle it (report it to the peer-health record) or justify with //datlint:ignore senderr")
			}
			return true
		})
	}
}

// checkCallCallback flags a transport/rpcudp Call or CallWithin whose
// final argument
// is a function literal that ignores its error parameter. The error is
// the last callback parameter by the transport.ResponseFunc convention;
// named-but-unused counts as ignored (Go does not reject unused
// parameters, so the analyzer has to).
func checkCallCallback(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || (fn.Name() != "Call" && fn.Name() != "CallWithin") {
		return
	}
	path := funcPkgPath(fn)
	if !pkgPathMatches(path, "transport") && !pkgPathMatches(path, "rpcudp") {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		return // callback passed by name; its own definition is checked where it lives
	}
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 {
		return
	}
	last := params.List[len(params.List)-1]
	if !isErrorField(pass, last) {
		return
	}
	if len(last.Names) == 0 {
		pass.Reportf(lit.Pos(), "Call response error ignored by the callback; handle it (report it to the peer-health record) or justify with //datlint:ignore senderr")
		return
	}
	errIdent := last.Names[len(last.Names)-1]
	if errIdent.Name == "_" {
		pass.Reportf(errIdent.Pos(), "Call response error ignored by the callback; handle it (report it to the peer-health record) or justify with //datlint:ignore senderr")
		return
	}
	obj := pass.Info.Defs[errIdent]
	used := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && obj != nil && pass.Info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	if !used {
		pass.Reportf(errIdent.Pos(), "Call response error %s is never read in the callback; handle it (report it to the peer-health record) or justify with //datlint:ignore senderr", errIdent.Name)
	}
}

// isErrorField reports whether the field's declared type is the
// built-in error interface.
func isErrorField(pass *Pass, f *ast.Field) bool {
	t := pass.Info.TypeOf(f.Type)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isTransportSend reports whether call invokes a method named Send
// declared by the transport or rpcudp package (including the Endpoint
// interface method) that returns an error.
func isTransportSend(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Send" {
		return false
	}
	path := funcPkgPath(fn)
	if !pkgPathMatches(path, "transport") && !pkgPathMatches(path, "rpcudp") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0
}
