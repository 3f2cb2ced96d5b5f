package bench

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

// shuffleVariant is one storage configuration of the exchange the pass
// compares against the in-memory reference.
type shuffleVariant struct {
	name     string
	budget   int64
	compress shuffle.Compression
}

// shuffleVariants covers the storage matrix: an unbounded in-memory
// exchange (the reference), a 1-byte budget that spills on every record,
// and spilling combined with the block codec.
var shuffleVariants = []shuffleVariant{
	{name: "inmem", budget: 0},
	{name: "spill", budget: 1},
	{name: "spill+lz4", budget: 1, compress: shuffle.LZ4},
}

// ShuffleCheck proves the exchange's end-to-end contract across every
// Table 1 and Table 2 app in both executor modes: a shuffle forced to
// spill on every map task — compressed or not — produces byte-identical
// application output to the unbounded in-memory exchange, and the
// serde ledger shows the baseline decoding every fetched record while
// gerenuk decodes none (the paper's S/D elimination at the exchange).
func ShuffleCheck(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("ShuffleCheck", "spilling/compressed exchange vs in-memory, all apps",
		"app", "mode", "spills", "fetched", "decodes", "outcome")

	apps := allApps()
	allEqual, serdeOK := true, true
	var totalSpills int64
	for _, app := range apps {
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			ref, _, err := runShuffleVariant(app, cfg, mode, shuffleVariants[0])
			if err != nil {
				return nil, fmt.Errorf("shuffle-check %s/%v/%s: %w", app, mode, "inmem", err)
			}
			var spills, fetched, decodes int64
			outcome := "ok"
			for _, v := range shuffleVariants[1:] {
				out, counters, err := runShuffleVariant(app, cfg, mode, v)
				if err != nil {
					return nil, fmt.Errorf("shuffle-check %s/%v/%s: %w", app, mode, v.name, err)
				}
				if !bytes.Equal(out, ref) {
					allEqual = false
					outcome = fmt.Sprintf("DIVERGED (%s)", v.name)
				}
				sp := counters["shuffle_spills_total"]
				if sp == 0 {
					allEqual = false
					outcome = fmt.Sprintf("NO SPILLS (%s)", v.name)
				}
				spills += sp
				fetched = counters["shuffle_records_fetched_total"]
				decodes = counters["shuffle_read_decodes_total"]
			}
			// The serde ledger: baseline pays one decode per fetched
			// record on shuffle read, gerenuk pays zero.
			if fetched == 0 {
				serdeOK = false
				outcome = "NO RECORDS FETCHED"
			}
			if mode == engine.Baseline && decodes != fetched {
				serdeOK = false
				outcome = fmt.Sprintf("DECODES %d != FETCHED %d", decodes, fetched)
			}
			if mode == engine.Gerenuk && decodes != 0 {
				serdeOK = false
				outcome = fmt.Sprintf("GERENUK DECODED %d", decodes)
			}
			totalSpills += spills
			r.Table.AddRow(app, mode.String(), fmt.Sprint(spills),
				fmt.Sprint(fetched), fmt.Sprint(decodes), outcome)
		}
	}
	r.Checks["equal"] = b2f(allEqual)
	r.Checks["serde_ledger"] = b2f(serdeOK)
	r.Checks["spills"] = float64(totalSpills)
	if !allEqual {
		return r, fmt.Errorf("shuffle-check: spilled/compressed exchange diverged from in-memory")
	}
	if !serdeOK {
		return r, fmt.Errorf("shuffle-check: shuffle-read serde ledger violated")
	}
	r.Notes = append(r.Notes,
		"every spilling and compressed configuration reproduced the in-memory output byte for byte",
		"baseline decoded every fetched record on shuffle read; gerenuk decoded zero")
	return r, nil
}

// runShuffleVariant executes one app under one exchange configuration
// with a private tracer, returning the canonical output bytes and the
// run's registry counters.
func runShuffleVariant(app string, cfg Config, mode engine.Mode, v shuffleVariant) ([]byte, map[string]int64, error) {
	tr := trace.New()
	cfg.Trace = tr
	cfg.Shuffle.MemoryBudget = v.budget
	cfg.Shuffle.Compression = v.compress
	res, err := RunApp(app, cfg, mode)
	return res.Out, tr.Registry().Snapshot().Counters, err
}
