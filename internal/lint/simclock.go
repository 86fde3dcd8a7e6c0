package lint

import (
	"go/ast"
	"go/types"
)

// SimClock flags wall-clock time sources inside the packages that must
// run identically under the discrete-event simulator: sim, core,
// experiments, and transport. Those layers receive an injected
// transport.Clock and a seeded RNG; reaching for time.Now / time.Sleep
// / time.After (or seeding math/rand from the wall clock) makes
// EXPERIMENTS.md runs unreproducible and desynchronizes virtual time.
//
// Files that implement a genuine real-time path (the live RealClock)
// opt out with a file-level pragma:
//
//	//datlint:allow-realtime <why this file is a real-time path>
//
// Even in such files, seeding math/rand from the clock is still
// flagged: a seed can always be threaded in explicitly, and a
// wall-clock seed silently breaks replay determinism.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc:  "flags wall-clock time and time-seeded math/rand in simulation-facing packages",
	Run:  runSimClock,
}

// simScopedPkgs are the package-name scopes the rule applies to. obs is
// included because its instruments and span ring are fed from both the
// simulated and live stacks: all of its timestamps must arrive as
// arguments from the caller's injected clock, never from the wall.
var simScopedPkgs = []string{"sim", "core", "experiments", "transport", "datcheck", "obs"}

// bannedTimeFuncs are the package-level time functions that read or
// wait on the wall clock. Types and constants (time.Duration,
// time.Second) are fine — they carry no clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Since": true, "Until": true,
}

func runSimClock(pass *Pass) {
	inScope := false
	for _, name := range simScopedPkgs {
		if pkgPathMatches(pass.Pkg.Path(), name) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Files {
		realtime := fileHasPragma(f, "allow-realtime")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isMathRandSeedCall(pass.Info, call) {
				if usesWallClock(pass.Info, call.Args) {
					pass.Reportf(call.Pos(), "math/rand seeded from the wall clock breaks replay determinism; thread an explicit seed through the constructor")
					// One finding per idiom: don't descend into the
					// argument, where the nested NewSource/time.Now
					// calls would each report the same problem again.
					return false
				}
				return true
			}
			if realtime {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil && funcPkgPath(fn) == "time" && bannedTimeFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "time.%s in simulation-facing code; use the injected transport.Clock (or mark a real-time file with //datlint:allow-realtime)", fn.Name())
			}
			return true
		})
	}
}

// isMathRandSeedCall reports whether call constructs or seeds a
// math/rand source: rand.NewSource, rand.Seed, or rand.New.
func isMathRandSeedCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	path := funcPkgPath(fn)
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	switch fn.Name() {
	case "NewSource", "Seed", "New", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

// usesWallClock reports whether any expression in args calls a banned
// time function (the rand.NewSource(time.Now().UnixNano()) idiom).
func usesWallClock(info *types.Info, args []ast.Expr) bool {
	found := false
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && funcPkgPath(fn) == "time" && bannedTimeFuncs[fn.Name()] {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
