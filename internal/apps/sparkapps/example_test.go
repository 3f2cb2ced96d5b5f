package sparkapps_test

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/workload"
)

// ExampleLogReg is the paper's motivating example (sections 1-2): a
// Spark logistic regression over LabeledPoint records. It first
// reproduces the Figure 4 arithmetic — the heap representation of
// LabeledPoints costs well over 2x the inlined payload — and then trains
// the model on both execution paths, which must produce identical
// weights.
func ExampleLogReg() {
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
	fmt.Printf("heap objects (headers+refs+padding): %d bytes\n", heapBytes)
	fmt.Printf("inlined native payload: %d bytes\n", inlineBytes)
	fmt.Printf("object-representation overhead: %.2fx\n", float64(heapBytes)/float64(inlineBytes))

	// Part 2: train logistic regression in both modes.
	points, trueW := workload.GenLabeledPoints(400, dim, 42)
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
	}
	same := len(weights[0]) == len(weights[1])
	dot := 0.0
	for d := range weights[0] {
		same = same && weights[0][d] == weights[1][d]
		dot += trueW[d] * weights[0][d]
	}
	fmt.Printf("weights identical across modes: %v\n", same)
	fmt.Printf("correlation with generating weights: positive = %v\n", dot > 0)
	// Output:
	// heap objects (headers+refs+padding): 336 bytes
	// inlined native payload: 120 bytes
	// object-representation overhead: 2.80x
	// weights identical across modes: true
	// correlation with generating weights: positive = true
}

// ExampleWordCount runs WordCount three ways (the Figure 8(b)
// comparison): the baseline heap path, the Gerenuk-transformed native
// path, and the Tungsten/DataFrame configuration whose fused
// binary-string tokenizer wins this flat workload. All three must agree
// on every count.
func ExampleWordCount() {
	docs := workload.GenDocs(60, 40, 7)
	run := func(mode engine.Mode, tungsten bool) map[string]int64 {
		prog := sparkapps.NewProgram(sparkapps.ClsDoc, sparkapps.ClsWordCount)
		comp := engine.Compile(prog)
		ctx := spark.NewContext(comp, mode)
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, 4)
		if err != nil {
			log.Fatal(err)
		}
		in := ctx.Parallelize(sparkapps.ClsDoc, parts)
		var out *spark.RDD
		if tungsten {
			twc := sparkapps.TungstenWordCount{}
			twc.Register(prog)
			out, err = twc.Run(ctx, in, &sparkapps.Catalyst{})
		} else {
			wc := sparkapps.WordCount{}
			wc.Register(prog)
			out, err = wc.Run(ctx, in)
		}
		if err != nil {
			log.Fatal(err)
		}
		counts, err := sparkapps.DecodeCounts(comp.Codec, out)
		if err != nil {
			log.Fatal(err)
		}
		return counts
	}
	base := run(engine.Baseline, false)
	agree := true
	for _, other := range []map[string]int64{run(engine.Gerenuk, false), run(engine.Gerenuk, true)} {
		agree = agree && len(other) == len(base)
		for w, n := range base {
			agree = agree && other[w] == n
		}
	}
	fmt.Printf("all three systems agree on every word count: %v\n", agree)

	words := make([]string, 0, len(base))
	for w := range base {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if base[words[i]] != base[words[j]] {
			return base[words[i]] > base[words[j]]
		}
		return words[i] < words[j]
	})
	fmt.Println("top words:")
	for _, w := range words[:5] {
		fmt.Printf("  %-12s %d\n", w, base[w])
	}
	// Output:
	// all three systems agree on every word count: true
	// top words:
	//   the          869
	//   of           360
	//   and          208
	//   data         142
	//   system       103
}

// ExampleStackOverflowAnalytics is the abort path of paper section 4.4:
// the StackOverflow Analytics combine contains java.util.Vector's resize
// pattern — a reference write into an existing data record. The Gerenuk
// compiler detects it statically (violation condition #2) and fences it
// with an abort; at run time the abort fires only for the tasks whose
// vectors actually outgrow their capacity, and the runtime transparently
// re-executes those tasks on the unmodified slow path. Results are
// identical either way.
func ExampleStackOverflowAnalytics() {
	posts := workload.GenPosts(48, 12, 99)
	build := func() (*engine.Compiled, sparkapps.StackOverflowAnalytics) {
		prog := sparkapps.NewProgram(sparkapps.ClsPost, sparkapps.ClsAccount)
		soa := sparkapps.StackOverflowAnalytics{InitialCap: 24}
		soa.Register(prog)
		return engine.Compile(prog), soa
	}

	// The compiler's view first.
	comp, _ := build()
	if err := comp.CompileDriver("soaCombineStage"); err != nil {
		log.Fatal(err)
	}
	ser := comp.SERs["soaCombineStage"]
	fmt.Printf("combine SER transformable: %v\n", ser.Transformable)
	for _, v := range ser.Violations {
		fmt.Printf("violation point (abort inserted before it): %s\n", v)
	}

	// Then both modes.
	var counts []map[int64]int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		comp, soa := build()
		ctx := spark.NewContext(comp, mode)
		ctx.Partitions = 4
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsPost, posts, 4)
		if err != nil {
			log.Fatal(err)
		}
		accounts, err := soa.Run(ctx, ctx.Parallelize(sparkapps.ClsPost, parts))
		if err != nil {
			log.Fatal(err)
		}
		m, err := sparkapps.DecodeAccounts(comp.Codec, accounts)
		if err != nil {
			log.Fatal(err)
		}
		counts = append(counts, m)
		fmt.Printf("%s: tasks aborted and re-executed on the slow path: %d\n", mode, ctx.Stats.Aborts)
	}

	same := len(counts[0]) == len(counts[1])
	total := int64(0)
	for u, n := range counts[0] {
		same = same && counts[1][u] == n
		total += n
	}
	fmt.Printf("per-user post counts identical across modes: %v\n", same)
	fmt.Printf("posts preserved: %d of %d\n", total, len(posts))
	// Output:
	// combine SER transformable: true
	// violation point (abort inserted before it): mutate-input at "soaCombine": a.posts = t8
	// baseline: tasks aborted and re-executed on the slow path: 0
	// gerenuk: tasks aborted and re-executed on the slow path: 4
	// per-user post counts identical across modes: true
	// posts preserved: 1072 of 1072
}
