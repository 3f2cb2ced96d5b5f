package sparkapps

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestCatalogDeclaresWhatRegistrationAdds keeps the catalog from drifting
// from the code: for every app, the *Stage drivers a fresh registration
// adds are exactly the declared Drivers, and each one compiles.
func TestCatalogDeclaresWhatRegistrationAdds(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Apps {
		if seen[a.Name] {
			t.Errorf("%s: declared twice", a.Name)
		}
		seen[a.Name] = true
		if got, ok := Lookup(a.Name); !ok || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %v, %v", a.Name, got.Name, ok)
		}

		prog := a.Program()
		var added []string
		for name := range prog.Funcs {
			if strings.HasSuffix(name, "Stage") {
				added = append(added, name)
			}
		}
		sort.Strings(added)
		declared := append([]string(nil), a.Drivers...)
		sort.Strings(declared)
		if !reflect.DeepEqual(added, declared) {
			t.Errorf("%s: registration adds drivers %v, catalog declares %v", a.Name, added, declared)
		}
		comp := engine.Compile(prog)
		for _, d := range a.Drivers {
			if err := comp.CompileDriver(d); err != nil {
				t.Errorf("%s: %s: %v", a.Name, d, err)
			}
		}
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Errorf("Lookup accepted an unknown app")
	}
}
