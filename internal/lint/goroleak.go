package lint

import (
	"go/ast"
)

// GoroLeak flags `go` statements in the long-lived protocol packages
// (chord, core, maan, rpcudp, cluster, and transport — home of the
// RealClock loop every live timer runs on) whose goroutine has no
// visible tie to its owner's lifecycle: no stop-channel or channel operation,
// no context.Done/Err, no WaitGroup.Done — directly or transitively
// through its call summary. Such a goroutine cannot be shut down,
// which breaks clean Close() paths, leaks under churn tests, and (on
// the simulated transport) keeps virtual time advancing after the node
// is gone. The upcoming per-destination send machines and the arena
// scheduler add exactly this kind of goroutine, so the rule lands
// before they do.
//
// Genuinely run-to-completion goroutines (bounded work, no loop) can
// be justified with //datlint:ignore goroleak <why it terminates>.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flags goroutines in protocol packages not tied to a stop channel, context, or WaitGroup",
	Run:  runGoroLeak,
}

// goroLeakPkgs are the packages whose goroutines must be stoppable.
var goroLeakPkgs = []string{"chord", "core", "maan", "rpcudp", "cluster", "transport"}

func runGoroLeak(pass *Pass) {
	inScope := false
	for _, name := range goroLeakPkgs {
		if pkgPathMatches(pass.Pkg.Path(), name) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			sum := pass.Sums.OfCall(pass.Info, g.Call)
			switch {
			case sum == nil:
				pass.Reportf(g.Pos(), "goroutine target is not statically resolvable; tie it to a stop channel, context, or WaitGroup and launch a named function (or //datlint:ignore goroleak)")
			case !sum.Effects.Has(EffShutdown):
				pass.Reportf(g.Pos(), "goroutine is not tied to a stop channel, context, or WaitGroup visible in its call summary: it cannot be shut down (tie it to the owner's lifecycle, or //datlint:ignore goroleak if it provably terminates)")
			}
			return true
		})
	}
}
