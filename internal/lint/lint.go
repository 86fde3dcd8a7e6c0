// Package lint implements datlint, a project-specific static-analysis
// suite for invariants the Go compiler cannot see: modular ring
// arithmetic (ringcmp), lock discipline around the network (locksafe),
// virtual-time discipline in simulation code (simclock), transport
// send-error handling (senderr), wire-codec registration of transport
// payloads (wirereg), map-iteration-order determinism on emitted data
// (detorder), obs-hook discipline under locks (hooklock), goroutine
// lifecycle ties in the protocol packages (goroleak), and the routing
// view's version discipline (routever). See
// DESIGN.md §7 for the rationale behind each rule and how it connects
// to the paper's math.
//
// The suite runs in two phases: ComputeSummaries (summary.go) first
// derives a per-function call summary — transitive effects plus
// acquired receiver mutexes — as facts keyed by *types.Func, then the
// analyzers consult those facts through Pass.Sums, which is what lets
// them see a send or hook buried several helpers deep.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built purely on the standard
// library's go/ast and go/types, so the module stays dependency-free.
//
// Suppression: a finding can be silenced with a comment on the same
// line or the line above, naming the analyzer and giving a reason:
//
//	x := a < b //datlint:ignore ringcmp deterministic tie-break, any total order works
//
// A file implementing a real-time (non-simulated) path can opt out of
// simclock entirely with a file-level pragma (anywhere in the file):
//
//	//datlint:allow-realtime implements the live clock
//
// Nondeterministically seeded math/rand is flagged even in such files;
// seeds must be threaded in explicitly so runs stay reproducible.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore pragmas.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Sums holds the phase-1 call summaries computed over the whole
	// load (see summary.go); analyzers consult it to see through
	// helper calls.
	Sums *Summaries

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full datlint suite in reporting order.
var All = []*Analyzer{RingCmp, LockSafe, SimClock, SendErr, WireReg, DetOrder, HookLock, GoroLeak, RouteVer}

// Suppression is one //datlint:ignore pragma flagged by the audit:
// either it silenced no finding of the named analyzer (stale), or it
// names an analyzer that does not exist (typo).
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

func (s Suppression) String() string {
	return fmt.Sprintf("%s: stale //datlint:ignore %s pragma: no finding suppressed — remove it or update the reason", s.Pos, s.Analyzer)
}

// Result is the outcome of a full run: surviving findings plus the
// suppression audit.
type Result struct {
	Diagnostics []Diagnostic
	Stale       []Suppression
}

// Run applies the analyzers to each package and returns the surviving
// (non-suppressed) findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll(pkgs, analyzers).Diagnostics
}

// RunAll is Run plus the unused-suppression audit. Phase 1 computes
// call summaries over every loaded package; phase 2 runs the analyzers
// per package against them. A pragma is audited only against the
// analyzers actually selected for this run (running a single analyzer
// must not flag pragmas belonging to the others), except that a
// pragma naming an analyzer missing from lint.All is always reported.
func RunAll(pkgs []*Package, analyzers []*Analyzer) Result {
	sums := ComputeSummaries(pkgs)
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	var res Result
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Sums:     sums,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ignores.matches(a.Name, d.Pos) {
					res.Diagnostics = append(res.Diagnostics, d)
				}
			}
		}
		res.Stale = append(res.Stale, ignores.stale(selected, known)...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i], res.Stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res
}

// pragma is one //datlint:ignore comment, tracked for the stale audit.
type pragma struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// ignoreSet records //datlint:ignore pragmas by file and line.
type ignoreSet struct {
	byLine map[string]map[int][]*pragma // filename -> line -> pragmas
	all    []*pragma
}

func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	set := &ignoreSet{byLine: map[string]map[int][]*pragma{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//datlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				p := &pragma{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
				}
				byLine := set.byLine[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*pragma{}
					set.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], p)
				set.all = append(set.all, p)
			}
		}
	}
	return set
}

// matches reports whether a pragma on the diagnostic's line or the line
// above names the analyzer, marking it used for the stale audit.
func (s *ignoreSet) matches(analyzer string, pos token.Position) bool {
	byLine := s.byLine[pos.Filename]
	if byLine == nil {
		return false
	}
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, p := range byLine[line] {
			if p.analyzer == analyzer {
				p.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale returns the pragmas that earned an audit report: unused ones
// naming a selected analyzer, and ones naming no known analyzer.
func (s *ignoreSet) stale(selected, known map[string]bool) []Suppression {
	var out []Suppression
	for _, p := range s.all {
		if !known[p.analyzer] || (selected[p.analyzer] && !p.used) {
			out = append(out, Suppression{Pos: p.pos, Analyzer: p.analyzer, Reason: p.reason})
		}
	}
	return out
}

// fileHasPragma reports whether any comment in the file starts with
// //datlint:<pragma>.
func fileHasPragma(f *ast.File, pragma string) bool {
	for _, cg := range f.Comments {
		if groupHasPragma(cg, pragma) {
			return true
		}
	}
	return false
}

// groupHasPragma reports whether a comment of the group is
// //datlint:<pragma>, bare or followed by a note.
func groupHasPragma(cg *ast.CommentGroup, pragma string) bool {
	if cg == nil {
		return false
	}
	want := "//datlint:" + pragma
	for _, c := range cg.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// fileOf returns the file containing pos.
func fileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// pkgPathMatches reports whether path is the named package or one of
// its vendored/test variants: an exact match, or a suffix match on a
// full path segment ("repro/internal/ident" matches "ident"). Fixture
// packages under testdata use the bare segment as their whole path, so
// the same analyzers run unchanged on fixtures and on the real tree.
func pkgPathMatches(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// calleeFunc resolves the static callee of a call, if it is a named
// function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn
// ("" for builtins).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
