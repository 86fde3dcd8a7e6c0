package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestAnalyzersOnFixtures checks each analyzer against its fixture
// package under testdata/src, in the style of
// golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want `regexp`
//
// on a line means the analyzer must report a diagnostic there whose
// message matches; every other line must be clean. Suppression pragmas
// (//datlint:ignore, //datlint:allow-realtime) are honored, so the
// fixtures also pin down the escape-hatch behavior.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
	}{
		{"ringcmp", RingCmp},
		{"chord", LockSafe},
		{"sim", SimClock},
		{"senderr", SendErr},
		{"wirereg", WireReg},
		{"detorder", DetOrder},
		{"hooklock", HookLock},
		{"goroleak/core", GoroLeak},
		{"routever/chord", RouteVer},
		{"routever/core", RouteVer},
	}
	root := filepath.Join("testdata", "src")
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg, err := LoadFixture(root, tc.fixture)
			if err != nil {
				t.Fatalf("load fixture %s: %v", tc.fixture, err)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			checkWants(t, pkg, diags)
		})
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	pos token.Position
	re  *regexp.Regexp
	hit bool
}

// parseWants collects the // want expectations of a fixture package,
// keyed by file:line.
func parseWants(t *testing.T, pkg *Package) map[string]*want {
	t.Helper()
	wants := map[string]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pat, err := strconv.Unquote(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v", pkg.Fset.Position(c.Pos()), c.Text, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[lineKey(pos)] = &want{pos: pos, re: re}
			}
		}
	}
	return wants
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		w := wants[lineKey(d.Pos)]
		switch {
		case w == nil:
			t.Errorf("unexpected diagnostic: %s", d)
		case w.hit:
			t.Errorf("duplicate diagnostic on %s: %s", lineKey(d.Pos), d)
		case !w.re.MatchString(d.Message):
			t.Errorf("%s: diagnostic %q does not match want %q", lineKey(d.Pos), d.Message, w.re)
		default:
			w.hit = true
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected diagnostic matching %q, got none", lineKey(w.pos), w.re)
		}
	}
}

// TestIgnorePragmaPositions pins the two accepted pragma placements:
// same line and line above.
func TestIgnorePragmaPositions(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

//datlint:ignore ringcmp above-line form
var _ = 1

var _ = 2 //datlint:ignore senderr same-line form
`
	f, err := parser.ParseFile(fset, "pragma_test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	set := collectIgnores(fset, []*ast.File{f})
	at := func(line int) token.Position {
		return token.Position{Filename: fset.Position(f.Pos()).Filename, Line: line}
	}
	if !set.matches("ringcmp", at(4)) {
		t.Error("pragma on the line above did not suppress line 4")
	}
	if !set.matches("senderr", at(6)) {
		t.Error("same-line pragma did not suppress line 6")
	}
	if set.matches("ringcmp", at(6)) {
		t.Error("pragma for one analyzer suppressed another")
	}
	if set.matches("ringcmp", at(5)) {
		t.Error("pragma leaked to an unrelated line")
	}
}

// TestRepoIsClean runs the full suite over the real module: the tree
// must stay datlint-clean. This is the same gate as
// `go run ./cmd/datlint ./...`, enforced from the ordinary test run.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export; skipped in -short mode")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	res := RunAll(pkgs, All)
	for _, d := range res.Diagnostics {
		t.Errorf("repo not lint-clean: %s", d)
	}
	for _, s := range res.Stale {
		t.Errorf("repo not lint-clean: %s", s)
	}
}
