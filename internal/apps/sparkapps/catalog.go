package sparkapps

import "repro/internal/ir"

// App is one Spark program of the suite: its name (the paper's
// abbreviation), the classes a job annotates as its top-level data types
// (section 3.1's second user input), the stage drivers its registration
// adds, and that registration. Runs, Table 1, the compiler statistics
// and gerenukc all read the suite from Apps, so each program is declared
// once.
type App struct {
	Name     string
	Types    []string
	Drivers  []string
	Register func(*ir.Program)
}

// Program builds a fresh program over the app's top-level types with its
// drivers registered.
func (a App) Program() *ir.Program {
	prog := NewProgram(a.Types...)
	a.Register(prog)
	return prog
}

// Apps is the Spark suite: the Table 1 programs in paper order, then the
// graph programs of Figure 5, WordCount of Figure 8(b) and the
// StackOverflow Analytics of Figure 10(a). Only TC's and SOA's
// registrations read their receiver; their values here are the ones the
// compiler statistics analyze.
var Apps = []App{
	{Name: "PR", Types: []string{ClsLinks, ClsRank, ClsContrib},
		Drivers:  []string{"prInitStage", "prJoinStage", "prCombineStage", "prUpdateStage"},
		Register: PageRank{}.Register},
	{Name: "KM", Types: []string{ClsDenseVector, ClsClusterStat},
		Drivers: []string{"kmCombineStage"}, Register: KMeans{}.Register},
	{Name: "LR", Types: []string{ClsLabeled, ClsGrad},
		Drivers: []string{"lrCombineStage"}, Register: LogReg{}.Register},
	{Name: "CS", Types: []string{ClsSparsePoint, ClsFeatObs},
		Drivers: []string{"csMapStage", "csCombineStage"}, Register: ChiSqSelector{}.Register},
	{Name: "GB", Types: []string{ClsLabeled, ClsSplitStat},
		Drivers: []string{"gbCombineStage"}, Register: GBoost{}.Register},
	{Name: "CC", Types: []string{ClsLinks, ClsLabel},
		Drivers:  []string{"ccInitStage", "ccJoinStage", "ccCombineStage"},
		Register: ConnectedComponents{}.Register},
	{Name: "TC", Types: []string{ClsLinks, ClsTriRec, ClsCountRec},
		Drivers:  []string{"tcWedgeStage", "tcEdgeStage", "tcCombineStage", "tcCountStage", "tcSumStage"},
		Register: TriangleCounting{Vertices: 100}.Register},
	{Name: "WC", Types: []string{ClsDoc, ClsWordCount},
		Drivers: []string{"wcSplitStage", "wcCombineStage"}, Register: WordCount{}.Register},
	{Name: "SOA", Types: []string{ClsPost, ClsAccount},
		Drivers:  []string{"soaMapStage", "soaCombineStage"},
		Register: StackOverflowAnalytics{InitialCap: 4}.Register},
}

// Lookup returns the catalog entry named name.
func Lookup(name string) (App, bool) {
	for _, a := range Apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
