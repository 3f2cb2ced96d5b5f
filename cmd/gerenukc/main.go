// Command gerenukc is the Gerenuk compiler front end: it runs the static
// pipeline (data structure analyzer, SER code analyzer, violation
// detection, Algorithm 1 transformation) over a named application and
// prints the compilation report — the inline layouts, the statements
// selected for transformation, the violation points, and optionally the
// transformed IR.
//
// Usage:
//
//	gerenukc -app soa [-dump] [-driver soaCombineStage]   (names match case-insensitively)
//	gerenukc -list
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/ir"
)

// appNames lists every application gerenukc compiles: the sparkapps
// catalog, then the Table 2 programs.
func appNames() []string {
	var names []string
	for _, a := range sparkapps.Apps {
		names = append(names, a.Name)
	}
	return append(names, hadoopapps.AllApps...)
}

// load builds the named application's program and lists its stage
// drivers.
func load(name string) (*ir.Program, []string) {
	if a, ok := sparkapps.Lookup(name); ok {
		return a.Program(), a.Drivers
	}
	prog, conf := hadoopapps.NewProgram(name)
	return prog, conf.Drivers()
}

func main() {
	appName := flag.String("app", "", "application to compile (see -list)")
	driver := flag.String("driver", "", "restrict to one stage driver")
	dump := flag.Bool("dump", false, "print the transformed IR")
	list := flag.Bool("list", false, "list known applications")
	flag.Parse()

	apps := appNames()
	if *list || *appName == "" {
		fmt.Println("applications:")
		for _, name := range apps {
			_, drivers := load(name)
			fmt.Printf("  %-10s drivers: %s\n", name, strings.Join(drivers, ", "))
		}
		if *appName == "" && !*list {
			os.Exit(2)
		}
		return
	}

	i := slices.IndexFunc(apps, func(n string) bool { return strings.EqualFold(n, *appName) })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "gerenukc: unknown app %q (try -list)\n", *appName)
		os.Exit(2)
	}
	name := apps[i]
	prog, drivers := load(name)
	comp := engine.Compile(prog)

	fmt.Printf("== %s ==\n", name)
	fmt.Printf("top-level data types (user annotation): %s\n", strings.Join(prog.TopTypes, ", "))
	fmt.Println("\n-- data structure analyzer --")
	accepted := comp.Layouts.Accepted
	fmt.Printf("accepted hierarchies: %s\n", strings.Join(accepted, ", "))
	var names []string
	for n := range comp.Layouts.Layouts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := comp.Layouts.Layout(n)
		size := "variable (tail array)"
		if l.Size != nil {
			size = l.Size.String()
		}
		fmt.Printf("  %-22s size = %s\n", n, size)
		for _, f := range l.Class.Fields {
			fmt.Printf("    .%-12s offset = %s\n", f.Name, l.FieldOff[f.Name])
		}
	}

	for _, d := range drivers {
		if *driver != "" && d != *driver {
			continue
		}
		if err := comp.CompileDriver(d); err != nil {
			fmt.Fprintf(os.Stderr, "gerenukc: %s: %v\n", d, err)
			os.Exit(1)
		}
		ser := comp.SERs[d]
		fmt.Printf("\n-- SER %s --\n", d)
		if !ser.Transformable {
			fmt.Printf("NOT TRANSFORMABLE: %s\n", ser.Reason)
			continue
		}
		sum := ser.Summary()
		st := comp.XStats[d]
		fmt.Printf("functions analyzed: %d, abstract objects: %d, data variables: %d\n",
			sum.Funcs, sum.Sites, sum.DataVars)
		fmt.Printf("statements transformed: %d, calls inlined: %d, classes touched: %d\n",
			st.RewrittenStmts, st.InlinedCalls, st.Classes)
		fmt.Printf("violation points (aborts inserted): %d\n", len(ser.Violations))
		for _, v := range ser.Violations {
			fmt.Printf("  %s\n", v)
		}
		if *dump {
			fmt.Println("\ntransformed IR:")
			dumpBody(comp.Natives[d].Body, 1)
		}
	}
}

func dumpBody(body []ir.Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range body {
		fmt.Printf("%s%s\n", indent, s)
		switch t := s.(type) {
		case *ir.If:
			dumpBody(t.Then, depth+1)
			if len(t.Else) > 0 {
				fmt.Printf("%selse:\n", indent)
				dumpBody(t.Else, depth+1)
			}
		case *ir.While:
			dumpBody(t.Body, depth+1)
		}
	}
}
