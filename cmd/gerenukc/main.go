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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/bench"
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
	bench.Exit("gerenukc", run(os.Args[1:], os.Stdout), 2)
}

// run parses args and writes the application list or the named
// application's compilation report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gerenukc", flag.ContinueOnError)
	appName := fs.String("app", "", "application to compile (see -list)")
	driver := fs.String("driver", "", "restrict to one stage driver")
	dump := fs.Bool("dump", false, "print the transformed IR")
	list := fs.Bool("list", false, "list known applications")
	if err := bench.ParseArgs(fs, args); err != nil {
		return err
	}

	apps := appNames()
	if *list || *appName == "" {
		fmt.Fprintln(stdout, "applications:")
		for _, name := range apps {
			_, drivers := load(name)
			fmt.Fprintf(stdout, "  %-10s drivers: %s\n", name, strings.Join(drivers, ", "))
		}
		if *appName == "" && !*list {
			return errors.New("name an application with -app, or pass -list")
		}
		return nil
	}

	i := slices.IndexFunc(apps, func(n string) bool { return strings.EqualFold(n, *appName) })
	if i < 0 {
		return fmt.Errorf("unknown app %q (try -list)", *appName)
	}
	name := apps[i]
	prog, drivers := load(name)
	comp := engine.Compile(prog)

	fmt.Fprintf(stdout, "== %s ==\n", name)
	fmt.Fprintf(stdout, "top-level data types (user annotation): %s\n", strings.Join(prog.TopTypes, ", "))
	fmt.Fprintln(stdout, "\n-- data structure analyzer --")
	accepted := comp.Layouts.Accepted
	fmt.Fprintf(stdout, "accepted hierarchies: %s\n", strings.Join(accepted, ", "))
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
		fmt.Fprintf(stdout, "  %-22s size = %s\n", n, size)
		for _, f := range l.Class.Fields {
			fmt.Fprintf(stdout, "    .%-12s offset = %s\n", f.Name, l.FieldOff[f.Name])
		}
	}

	for _, d := range drivers {
		if *driver != "" && d != *driver {
			continue
		}
		if err := comp.CompileDriver(d); err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		ser := comp.SERs[d]
		fmt.Fprintf(stdout, "\n-- SER %s --\n", d)
		if !ser.Transformable {
			fmt.Fprintf(stdout, "NOT TRANSFORMABLE: %s\n", ser.Reason)
			continue
		}
		sum := ser.Summary()
		st := comp.XStats[d]
		fmt.Fprintf(stdout, "functions analyzed: %d, abstract objects: %d, data variables: %d\n",
			sum.Funcs, sum.Sites, sum.DataVars)
		fmt.Fprintf(stdout, "statements transformed: %d, calls inlined: %d, classes touched: %d\n",
			st.RewrittenStmts, st.InlinedCalls, st.Classes)
		fmt.Fprintf(stdout, "violation points (aborts inserted): %d\n", len(ser.Violations))
		for _, v := range ser.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		if *dump {
			fmt.Fprintln(stdout, "\ntransformed IR:")
			dumpBody(stdout, comp.Natives[d].Body, 1)
		}
	}
	return nil
}

func dumpBody(w io.Writer, body []ir.Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range body {
		fmt.Fprintf(w, "%s%s\n", indent, s)
		switch t := s.(type) {
		case *ir.If:
			dumpBody(w, t.Then, depth+1)
			if len(t.Else) > 0 {
				fmt.Fprintf(w, "%selse:\n", indent)
				dumpBody(w, t.Else, depth+1)
			}
		case *ir.While:
			dumpBody(w, t.Body, depth+1)
		}
	}
}
