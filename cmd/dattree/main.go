// Command dattree builds a DAT over a synthetic overlay snapshot and
// renders it — as an indented ASCII tree, Graphviz DOT, or a property
// summary. Handy for inspecting how the basic and balanced construction
// rules shape the tree.
//
//	dattree -n 16 -ids even -scheme basic            # the paper's Fig. 2
//	dattree -n 16 -ids even -scheme balanced         # the paper's Fig. 5
//	dattree -n 512 -scheme balanced-local -dot t.dot # render with graphviz
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ident"
)

func main() {
	var (
		n      = flag.Int("n", 16, "number of nodes")
		bits   = flag.Uint("bits", 0, "identifier space width (0: smallest that fits 4x n)")
		seed   = flag.Int64("seed", 1, "random seed")
		ids    = flag.String("ids", "even", "identifier placement: random, probed, even")
		scheme = flag.String("scheme", "balanced", "tree scheme: basic, balanced, balanced-local")
		attr   = flag.String("attr", "", "aggregate name (empty: root at identifier 0)")
		dot    = flag.String("dot", "", "write Graphviz DOT to this file")
		max    = flag.Int("max", 64, "maximum nodes in the ASCII rendering (0: all)")
	)
	flag.Parse()

	if *bits == 0 {
		b := uint(2)
		for (uint64(1) << b) < uint64(*n)*4 {
			b++
		}
		*bits = b
	}
	placement, ok := map[string]cluster.IDStrategy{
		"random": cluster.RandomIDs, "probed": cluster.ProbedIDs, "even": cluster.EvenIDs,
	}[*ids]
	if !ok {
		log.Fatalf("dattree: unknown placement %q", *ids)
	}
	space := ident.New(*bits)
	ring, err := chord.NewRing(space, placement.IDs(space, *n, rand.New(rand.NewSource(*seed))))
	if err != nil {
		log.Fatal(err)
	}

	schemeVal, ok := map[string]core.Scheme{
		"basic": core.Basic, "balanced": core.Balanced, "balanced-local": core.BalancedLocal,
	}[*scheme]
	if !ok {
		log.Fatalf("dattree: unknown scheme %q", *scheme)
	}
	key := ident.ID(0)
	if *attr != "" {
		key = space.HashString(*attr)
	}
	tree := core.Build(ring, key, schemeVal)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("n=%d bits=%d ids=%s scheme=%s key=%v root=%v\n",
		*n, *bits, *ids, *scheme, key, tree.Root)
	fmt.Printf("height=%d (bound %d)  max branching=%d (basic prediction %d)  avg branching=%.2f\n\n",
		tree.Height(), analysis.HeightBound(*n),
		tree.MaxBranching(), analysis.BasicMaxBranching(*n), tree.AvgBranching())
	if err := tree.RenderASCII(os.Stdout, *max); err != nil {
		log.Fatal(err)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := tree.WriteDOT(f, *scheme); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *dot)
	}
}
