// WordCount three ways (the Figure 8(b) comparison): the baseline heap
// path, the Gerenuk-transformed native path, and the Tungsten/DataFrame
// configuration whose fused binary-string tokenizer wins this flat
// workload.
//
// Run with:
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/spark"
	"repro/internal/workload"
)

func main() {
	docs := workload.GenDocs(60, 40, 7)

	type outcome struct {
		name   string
		counts map[string]int64
		stats  string
	}
	var results []outcome

	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		prog := sparkapps.NewProgram(sparkapps.ClsDoc, sparkapps.ClsWordCount)
		comp := engine.Compile(prog)
		ctx := spark.NewContext(comp, mode)
		wc := sparkapps.WordCount{}
		wc.Register(prog)
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, 4)
		if err != nil {
			log.Fatal(err)
		}
		out, err := wc.Run(ctx, ctx.Parallelize(sparkapps.ClsDoc, parts))
		if err != nil {
			log.Fatal(err)
		}
		counts, err := sparkapps.DecodeCounts(comp.Codec, out)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, outcome{mode.String(), counts, ctx.Stats.String()})
	}

	// Tungsten: same engine substrate, fused string split.
	{
		prog := sparkapps.NewProgram(sparkapps.ClsDoc, sparkapps.ClsWordCount)
		comp := engine.Compile(prog)
		ctx := spark.NewContext(comp, engine.Gerenuk)
		twc := sparkapps.TungstenWordCount{}
		twc.Register(prog)
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, 4)
		if err != nil {
			log.Fatal(err)
		}
		var c sparkapps.Catalyst
		out, err := twc.Run(ctx, ctx.Parallelize(sparkapps.ClsDoc, parts), &c)
		if err != nil {
			log.Fatal(err)
		}
		counts, err := sparkapps.DecodeCounts(comp.Codec, out)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, outcome{"tungsten", counts,
			fmt.Sprintf("total=%v (incl. plan %v)", ctx.Stats.Total+c.PlanTime, c.PlanTime)})
	}

	for _, r := range results[1:] {
		if len(r.counts) != len(results[0].counts) {
			log.Fatalf("%s disagrees with baseline", r.name)
		}
		for w, n := range results[0].counts {
			if r.counts[w] != n {
				log.Fatalf("%s: count[%q] = %d, baseline %d", r.name, w, r.counts[w], n)
			}
		}
	}
	fmt.Println("all three systems agree on every word count")

	type wc struct {
		w string
		n int64
	}
	var top []wc
	for w, n := range results[0].counts {
		top = append(top, wc{w, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	fmt.Println("\ntop words:")
	for _, e := range top[:5] {
		fmt.Printf("  %-12s %d\n", e.w, e.n)
	}
	fmt.Println("\ncosts:")
	for _, r := range results {
		fmt.Printf("  %-9s %s\n", r.name, r.stats)
	}
}
