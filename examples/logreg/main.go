// The paper's motivating example (sections 1-2): a Spark logistic
// regression over LabeledPoint records. This example first reproduces
// the Figure 4 arithmetic — the heap representation of LabeledPoints
// costs roughly 2x more than the inlined payload — and then trains the
// model on both execution paths, showing identical weights and the
// Gerenuk path's cost savings.
//
// Run with:
//
//	go run ./examples/logreg
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/workload"
)

func main() {
	const dim = 8

	// Part 1: Figure 4 — layout comparison for three LabeledPoints.
	prog := sparkapps.NewProgram(sparkapps.ClsLabeled, sparkapps.ClsGrad)
	comp := engine.Compile(prog)
	h := heap.New(prog.Reg, heap.Config{})
	var roots []heap.Addr
	defer h.AddRoots(heap.RootFunc(func(visit func(*heap.Addr)) {
		for i := range roots {
			visit(&roots[i])
		}
	}))()
	var heapBytes, inlineBytes int64
	for i := 0; i < 3; i++ {
		a, err := comp.Codec.Build(h, sparkapps.ClsLabeled, serde.Obj{
			"label":    float64(i),
			"features": serde.Obj{"size": int64(3), "values": []float64{1, 2, 3}},
		})
		if err != nil {
			log.Fatal(err)
		}
		roots = append(roots, a)
		foot, _ := comp.Codec.HeapFootprint(h, a, sparkapps.ClsLabeled)
		wire, _ := comp.Codec.Serialize(h, a, sparkapps.ClsLabeled, nil)
		heapBytes += foot
		inlineBytes += int64(len(wire) - serde.SizePrefixBytes)
	}
	fmt.Println("== Figure 4: representation of 3 LabeledPoints ==")
	fmt.Printf("  heap objects (headers+refs+padding): %4d bytes\n", heapBytes)
	fmt.Printf("  inlined native payload:              %4d bytes\n", inlineBytes)
	fmt.Printf("  object-representation overhead:      %.2fx\n",
		float64(heapBytes)/float64(inlineBytes))

	// Part 2: train logistic regression in both modes.
	points, trueW := workload.GenLabeledPoints(400, dim, 42)
	fmt.Println("\n== training (4 iterations, both modes) ==")
	var weights [][]float64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		prog := sparkapps.NewProgram(sparkapps.ClsLabeled, sparkapps.ClsGrad)
		comp := engine.Compile(prog)
		ctx := spark.NewContext(comp, mode)
		lr := sparkapps.LogReg{Dim: dim, Iters: 4, Rate: 1}
		lr.Register(prog)
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsLabeled, points, 4)
		if err != nil {
			log.Fatal(err)
		}
		w, err := lr.Run(ctx, ctx.Parallelize(sparkapps.ClsLabeled, parts))
		if err != nil {
			log.Fatal(err)
		}
		weights = append(weights, w)
		fmt.Printf("  %-8s %s\n", mode, ctx.Stats)
	}
	same := true
	for d := range weights[0] {
		if weights[0][d] != weights[1][d] {
			same = false
		}
	}
	fmt.Printf("\nweights identical across modes: %v\n", same)
	if !same {
		os.Exit(1)
	}
	dot := 0.0
	for d := range trueW {
		dot += trueW[d] * weights[0][d]
	}
	fmt.Printf("correlation with generating weights: positive = %v\n", dot > 0)
}
