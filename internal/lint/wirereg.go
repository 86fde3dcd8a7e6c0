package lint

import (
	"go/ast"
	"go/types"
)

// WireReg flags protocol payload types sent over the transport without
// a compact-codec registration: a concrete struct type declared in this
// package and passed as the payload of a transport/rpcudp Send, Call or
// CallWithin, or a transport Reply, must also appear as the sample argument of a
// wire.Register call somewhere in the package.
//
// An unregistered payload does not travel: the codec has no fallback,
// so the send fails with wire.ErrUnregistered on a socket (DESIGN.md
// §11) while the simulator, which never serializes, would hide it.
// Register the type next to its declaration (see
// internal/chord/wire.go for the pattern) or justify the exception —
// a payload that only ever crosses the simulated network — with
// //datlint:ignore wirereg <reason>.
//
// Types declared in *other* packages are not this package's to
// register, so only locally-declared payloads are checked — the rule
// fires where the fix belongs.
var WireReg = &Analyzer{
	Name: "wirereg",
	Doc:  "flags locally-declared transport payload types without a wire.Register codec",
	Run:  runWireReg,
}

func runWireReg(pass *Pass) {
	for _, name := range []string{"transport", "rpcudp", "wire", "lint"} {
		if pkgPathMatches(pass.Pkg.Path(), name) {
			return // the codec seam itself, and lint's own scaffolding
		}
	}
	registered := wireRegistrations(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := payloadArg(pass, call)
			if !ok {
				return true
			}
			tn := localPayloadType(pass, arg)
			if tn == nil || registered[tn] {
				return true
			}
			pass.Reportf(arg.Pos(), "payload type %s is sent over the transport but never wire.Register-ed; it fails to encode (wire.ErrUnregistered) — register it next to its declaration or justify with //datlint:ignore wirereg", tn.Name())
			return true
		})
	}
}

// wireRegistrations collects the payload types this package registers:
// the second argument of every call to wire.Register.
func wireRegistrations(pass *Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Name() != "Register" || !pkgPathMatches(funcPkgPath(fn), "wire") {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			if tn := namedTypeOf(pass, call.Args[1]); tn != nil {
				out[tn] = true
			}
			return true
		})
	}
	return out
}

// payloadArg returns the payload argument of a transport/rpcudp Send,
// Call or CallWithin, or a transport Reply.
func payloadArg(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return nil, false
	}
	path := funcPkgPath(fn)
	fromTransport := pkgPathMatches(path, "transport") || pkgPathMatches(path, "rpcudp")
	if !fromTransport {
		return nil, false
	}
	switch fn.Name() {
	case "Send", "Call", "CallWithin":
		if len(call.Args) >= 3 {
			return call.Args[2], true
		}
	case "Reply":
		if len(call.Args) >= 1 {
			return call.Args[0], true
		}
	}
	return nil, false
}

// localPayloadType resolves arg to the *types.TypeName of a struct type
// declared in the package under analysis; nil for anything else
// (foreign types, interfaces, nil payloads, basic values).
func localPayloadType(pass *Pass, arg ast.Expr) *types.TypeName {
	tn := namedTypeOf(pass, arg)
	if tn == nil || tn.Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
		return nil
	}
	return tn
}

// namedTypeOf returns the named type of expr (through one level of
// pointer), or nil.
func namedTypeOf(pass *Pass, expr ast.Expr) *types.TypeName {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}
