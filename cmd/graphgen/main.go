// Graphgen generates synthetic graphs to edge-list or binary files.
//
// Usage:
//
//	graphgen -kind powerlaw -n 100000 -deg 16 -exp 2.2 -seed 1 -o graph.bin
//	graphgen -kind dataset -name TW -scale 0.5 -o tw.txt
//	graphgen -kind rmat -scalebits 16 -deg 16 -o rmat.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
)

func main() {
	kind := flag.String("kind", "powerlaw", "powerlaw | rmat | er | ring | grid | dataset")
	n := flag.Int("n", 10000, "vertex count (powerlaw, er, ring)")
	deg := flag.Float64("deg", 16, "average degree (powerlaw, rmat, er)")
	exp := flag.Float64("exp", 2.2, "power-law exponent")
	maxDeg := flag.Int("maxdeg", 0, "max degree cap (powerlaw)")
	scaleBits := flag.Int("scalebits", 14, "log2 vertices (rmat)")
	rows := flag.Int("rows", 100, "grid rows")
	cols := flag.Int("cols", 100, "grid cols")
	name := flag.String("name", "OR", "dataset name (dataset kind): OR AR TW UK")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	undirected := flag.Bool("undirected", false, "symmetrize before writing")
	out := flag.String("o", "", "output path (.bin/.gob binary, else text edge list)")
	flag.Parse()

	if *out == "" {
		log.Fatal("missing -o output path")
	}

	var g *graph.Graph
	switch *kind {
	case "powerlaw":
		g = generate.PowerLaw(generate.PowerLawConfig{
			N: *n, AvgDegree: *deg, Exponent: *exp, MaxDegree: *maxDeg, Seed: *seed,
		})
	case "rmat":
		g = generate.RMAT(generate.RMATConfig{Scale: *scaleBits, EdgeFactor: *deg, Seed: *seed})
	case "er":
		g = generate.ErdosRenyi(*n, int(*deg*float64(*n)), *seed)
	case "ring":
		g = generate.Ring(*n)
	case "grid":
		g = generate.Grid(*rows, *cols)
	case "dataset":
		d, err := generate.ByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		g = d.Build(*scale)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}

	if *undirected {
		g = graph.Symmetrize(g)
	}

	if err := graph.SaveFile(*out, g); err != nil {
		log.Fatal(err)
	}
	s := graph.Summarize(g)
	fmt.Fprintf(os.Stderr, "wrote %s: %d vertices, %d edges, max degree %d, avg degree %.1f\n",
		*out, s.Vertices, s.Edges, s.MaxDegree, s.AvgDegree)
}
