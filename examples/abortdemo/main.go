// Abort demo (paper section 4.4): the StackOverflow Analytics combine
// contains java.util.Vector's resize pattern — a reference write into an
// existing data record. The Gerenuk compiler detects it statically
// (violation condition #2) and fences it with an abort; at run time the
// abort fires only for users whose vectors actually outgrow their
// capacity, and the runtime transparently re-executes those tasks on the
// unmodified slow path. Results are identical either way.
//
// Run with:
//
//	go run ./examples/abortdemo
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/spark"
	"repro/internal/workload"
)

func main() {
	posts := workload.GenPosts(48, 12, 99)
	fmt.Printf("input: %d posts across 48 users (a few heavy posters)\n\n", len(posts))

	// Show the compiler's view first.
	prog := sparkapps.NewProgram(sparkapps.ClsPost, sparkapps.ClsAccount)
	soa := sparkapps.StackOverflowAnalytics{InitialCap: 24}
	soa.Register(prog)
	comp := engine.Compile(prog)
	if err := comp.CompileDriver("soaCombineStage"); err != nil {
		log.Fatal(err)
	}
	ser := comp.SERs["soaCombineStage"]
	fmt.Println("== static analysis of the combine SER ==")
	fmt.Printf("transformable: %v\n", ser.Transformable)
	for _, v := range ser.Violations {
		fmt.Printf("violation point: %s\n", v)
	}
	fmt.Println("(an abort instruction is inserted immediately before it)")

	// Run both modes.
	var counts []map[int64]int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		prog := sparkapps.NewProgram(sparkapps.ClsPost, sparkapps.ClsAccount)
		soa := sparkapps.StackOverflowAnalytics{InitialCap: 24}
		soa.Register(prog)
		comp := engine.Compile(prog)
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
		fmt.Printf("\n== %s ==\n", mode)
		fmt.Printf("tasks aborted and re-executed on the slow path: %d\n", ctx.Stats.Aborts)
		fmt.Printf("stats: %s\n", ctx.Stats)
	}

	same := len(counts[0]) == len(counts[1])
	for u, n := range counts[0] {
		if counts[1][u] != n {
			same = false
		}
	}
	fmt.Printf("\nper-user post counts identical across modes: %v\n", same)
	if !same {
		os.Exit(1)
	}
	total := int64(0)
	for _, n := range counts[0] {
		total += n
	}
	fmt.Printf("posts preserved: %d of %d\n", total, len(posts))
}
