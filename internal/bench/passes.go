package bench

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/shuffle"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The verification passes, each a variant table over Matrix.

// ShuffleCheck proves, for every app in both modes, that an exchange
// spilling on every record — compressed or not — gives the in-memory
// exchange's output byte for byte, and that the baseline decodes every
// fetched record while gerenuk decodes none (S/D elimination).
func ShuffleCheck(cfg Config) (*Result, error) { return shuffleMatrix.Run(cfg) }

var shuffleMatrix = Matrix{
	ID: "ShuffleCheck", Title: "spilling/compressed exchange vs in-memory, all apps",
	Header:   []string{"app", "mode", "spills", "fetched", "decodes", "outcome"},
	Counters: true,
	Variants: []Variant{
		{Name: "inmem", Mutate: exchange(0, shuffle.None), Check: serdeLedger},
		{Name: "spill", Mutate: exchange(1, shuffle.None), Ref: "inmem", Check: spilled},
		{Name: "spill+lz4", Mutate: exchange(1, shuffle.LZ4), Ref: "inmem", Check: spilled},
	},
	Row: func(cells []*Cell) []string {
		return appRow(cells, total(cells, "shuffle_spills_total"),
			total(cells, "shuffle_records_fetched_total", "spill+lz4"), total(cells, "shuffle_read_decodes_total", "spill+lz4"))
	},
	Notes: func([]*Cell) []string {
		return []string{"every spilling and compressed configuration reproduced the in-memory output byte for byte",
			"baseline decoded every fetched record on shuffle read; gerenuk decoded zero"}
	},
}

func exchange(budget int64, codec shuffle.Compression) func(*Config) {
	return func(c *Config) { c.Shuffle.MemoryBudget, c.Shuffle.Compression = budget, codec }
}

// serdeLedger: baseline pays one decode per fetched record on shuffle
// read, gerenuk pays zero.
func serdeLedger(c *Cell) error {
	fetched, decodes := c.Counters["shuffle_records_fetched_total"], c.Counters["shuffle_read_decodes_total"]
	switch {
	case fetched == 0:
		return errors.New("no records fetched")
	case c.Mode == engine.Baseline && decodes != fetched:
		return fmt.Errorf("%d decodes != %d records fetched", decodes, fetched)
	case c.Mode == engine.Gerenuk && decodes != 0:
		return fmt.Errorf("gerenuk decoded %d records", decodes)
	}
	return nil
}

// spilled holds a budgeted exchange to spilling, then to the ledger.
func spilled(c *Cell) error {
	if c.Counters["shuffle_spills_total"] == 0 {
		return errors.New("no spills under a 1-byte budget")
	}
	return serdeLedger(c)
}

// RecoveryCheck proves, for every app in both modes, that a replicated
// exchange losing one copy per reducer (failover) or every copy (lineage
// re-execution), reduce-task kills resuming from checkpoints, and kills
// that also corrupt the last checkpoint (detected, discarded) all give
// the fault-free output byte for byte.
func RecoveryCheck(cfg Config) (*Result, error) { return recoveryMatrix.Run(cfg) }

var recoveryMatrix = Matrix{
	ID: "RecoveryCheck", Title: "replica loss, reduce kills, checkpoint corruption vs fault-free",
	Header:   []string{"app", "mode", "reexecs", "failovers", "resumes", "corrupt", "outcome"},
	Counters: true,
	Variants: []Variant{
		loss("fault-free", 0, 0, nil),
		loss("replica-failover", 2, 0, &faults.Injector{Seed: 101, ReplicaLossRate: 1, ReplicaLosses: 1}),
		loss("replica-loss-reexec", 2, 0, &faults.Injector{Seed: 102, ReplicaLossRate: 1, ReplicaLosses: 99}),
		loss("reduce-kill", 0, 1, &faults.Injector{Seed: 103, KillRate: 1, MaxRecord: 6}),
		loss("kill+ckpt-corrupt", 0, 1, &faults.Injector{Seed: 104, KillRate: 1, CheckpointCorruptRate: 1, MaxRecord: 6}),
	},
	Row: func(cells []*Cell) []string {
		return appRow(cells, total(cells, "recovery_reexec_total"), total(cells, "recovery_replica_failover_total"),
			total(cells, "recovery_checkpoint_resumes_total"), total(cells, "recovery_checkpoint_corrupt_total"))
	},
	Check: func(cells []*Cell) error {
		return ticked(cells, "recovery_reexec_total", "recovery_checkpoint_resumes_total", "recovery_checkpoint_corrupt_total")
	},
	Notes: func(cells []*Cell) []string {
		return []string{"every app recovered byte-identically from replica loss, reduce kills, and checkpoint corruption",
			"full replica loss was repaired by lineage re-execution",
			fmt.Sprintf("%d lineage re-executions, %d checkpoint resumes, %d corrupt checkpoints detected",
				total(cells, "recovery_reexec_total"), total(cells, "recovery_checkpoint_resumes_total"),
				total(cells, "recovery_checkpoint_corrupt_total"))}
	},
}

// loss is one recovery variant: replicas, checkpointing and a fault
// plan (an Injector holds no state), judged against the fault-free run
// (plan nil).
func loss(name string, replicas, checkpointEvery int, plan *faults.Injector) Variant {
	v := Variant{Name: name, Mutate: func(c *Config) {
		c.Shuffle.Replicas, c.CheckpointEvery, c.Injector = replicas, checkpointEvery, plan
	}}
	if plan != nil {
		v.Ref = "fault-free"
	}
	return v
}

// ticked holds cells to each of counters ticking in some cell.
func ticked(cells []*Cell, counters ...string) error {
	var errs []error
	for _, counter := range counters {
		if total(cells, counter) == 0 {
			errs = append(errs, fmt.Errorf("%s never ticked", counter))
		}
	}
	return errors.Join(errs...)
}

// appRow is a grouped table's row: app, mode, cols, then the outcome.
func appRow(cells []*Cell, cols ...int64) []string {
	row := []string{cells[0].App, cells[0].Mode.String()}
	for _, col := range cols {
		row = append(row, fmt.Sprint(col))
	}
	return append(row, outcome(cells))
}

// StreamRunConfig maps the bench configuration onto one streaming run
// of the named app: the run environment flows through; the simulated
// clock and window policy scale with cfg.Scale (more windows, same
// cadence).
func StreamRunConfig(cfg Config, app string, mode engine.Mode) (stream.Config, error) {
	cfg = cfg.withDefaults()
	spec, err := stream.App(app)
	if err != nil {
		return stream.Config{}, err
	}
	return stream.Config{
		App:      spec,
		Reducers: cfg.Partitions,
		HeapCfg:  appHeap(cfg),

		Seed:     7,
		Interval: time.Millisecond,
		CutBy:    stream.Cut{Count: 5},
		WindowBy: stream.Window{Size: 8 * time.Millisecond},
		Windows:  2 + cfg.Scale,
	}.WithEnv(cfg.env(app, mode)), nil
}

// streamRunner runs a cell as one streaming run of its app, its
// StreamRunConfig changed by set when set is non-nil. A run set to crash
// is a two-step cell: killed after CrashAfterBatches batches, then
// resumed from the checkpoint store it left. c.Out is every window's
// bytes, each behind its length, so equal outputs are equal windows.
func streamRunner(set func(*stream.Config)) Runner {
	return func(c *Cell, cfg Config) error {
		sc, err := StreamRunConfig(cfg, c.App, c.Mode)
		if err != nil {
			return err
		}
		if set != nil {
			set(&sc)
		}
		if sc.CrashAfterBatches > 0 {
			if _, err := stream.Run(sc); !errors.Is(err, stream.ErrCrashed) {
				return fmt.Errorf("crash hook: %v", err)
			}
			sc.CrashAfterBatches, sc.Resume = 0, true
		}
		res, err := stream.Run(sc)
		c.Stream, c.Stats, c.Wall, c.Out = res, res.Stats, res.Wall, nil
		for _, w := range res.Windows {
			c.Out = append(binary.AppendUvarint(c.Out, uint64(len(w))), w...)
		}
		return err
	}
}

// StreamCheck proves, for every streaming app in both modes, that
// micro-batched windows equal a one-shot batch run over the same records
// (and across modes) byte for byte: clean, under the recovery chaos
// plan, and across a kill-mid-window crash resumed from checkpoints.
func StreamCheck(cfg Config) (*Result, error) { return streamMatrix.Run(cfg) }

var streamMatrix = Matrix{
	ID: "StreamCheck", Title: "micro-batched windows vs one-shot batch, chaos + kill/resume",
	Header:   []string{"app", "mode", "batches", "windows", "resumes", "outcome"},
	Apps:     stream.AppNames,
	Runner:   streamRunner(nil),
	Counters: true,
	Variants: []Variant{
		// The reference: the same records and windows in one micro-batch.
		{Name: "one-batch", Mutate: func(c *Config) { c.Injector, c.Checkpoints, c.Lineage = nil, nil, nil },
			Runner: streamRunner(func(sc *stream.Config) { sc.CutBy = stream.Cut{Count: 1 << 30} })},
		{Name: "streamed", Ref: "one-batch", Check: microBatched},
		// Kills, replica loss, checkpoint rot, flaky fetches: output must
		// not move.
		{Name: "chaos", Ref: "one-batch", Mutate: func(c *Config) {
			c.Injector = faults.RecoveryChaos(11)
			c.CheckpointEvery = 2
			c.StageDeadline = 5 * time.Second
			c.Shuffle.Replicas = 2
		}},
		{Name: "crash+resume", Ref: "one-batch", Runner: streamRunner(func(sc *stream.Config) {
			sc.Checkpoints, sc.CrashAfterBatches = recovery.NewCheckpointStore(), 2
		})},
	},
	Row: func(cells []*Cell) []string {
		return appRow(cells, total(cells, "stream_batches_total", "streamed", "chaos"),
			total(cells, "stream_windows_total", "streamed"), total(cells, "stream_window_resumes_total"))
	},
	Check: func(cells []*Cell) error { return ticked(cells, "stream_batches_total", "stream_window_resumes_total") },
	Notes: func(cells []*Cell) []string {
		batches := total(cells, "stream_batches_total", "streamed", "chaos")
		return []string{"streamed, chaos, and crash-resumed window outputs all byte-equal the one-shot batch run",
			"both modes agree window-for-window (the S/D-elimination contract holds under streaming)",
			fmt.Sprintf("%d micro-batches, %d window resumes", batches, total(cells, "stream_window_resumes_total"))}
	},
}

// microBatched holds a streamed run to cutting more batches than its
// one-batch reference, and its windows to the Baseline run's.
func microBatched(c *Cell) error {
	if got, ref := c.Counters["stream_batches_total"], c.Ref.Counters["stream_batches_total"]; got <= ref {
		return fmt.Errorf("streamed run cut %d batches, its reference %d: no micro-batching", got, ref)
	}
	if base := c.Peer(c.Variant); base != nil && !bytes.Equal(c.Out, base.Out) {
		return errors.New("windows differ from the baseline mode's")
	}
	return nil
}

// StreamBench runs every streaming app in both modes and reports
// sustained throughput and batch latency quantiles.
func StreamBench(cfg Config) (*Result, error) {
	return Matrix{
		ID: "StreamBench", Title: "sustained micro-batch streaming throughput",
		Header:   []string{"app", "mode", "records", "batches", "windows", "rec/s", "batch p50", "batch p99"},
		Apps:     stream.AppNames,
		Runner:   streamRunner(nil),
		Variants: []Variant{{Name: "streamed"}},
		Row: func(cells []*Cell) []string {
			res := cells[0].Stream
			return []string{cells[0].App, cells[0].Mode.String(), fmt.Sprint(res.Records), fmt.Sprint(res.Batches),
				fmt.Sprint(len(res.Windows)), fmt.Sprintf("%.0f", res.RecordsPerSec),
				res.BatchP50.String(), res.BatchP99.String()}
		},
	}.Run(cfg)
}

// errHedgeSlower marks the one Chaos predicate comparing wall clocks.
var errHedgeSlower = errors.New("hedging did not beat the unhedged straggler wall time")

// Chaos runs WordCount under deterministic fault injection and asserts
// the paper's recovery contract end to end. With panics, native-memory
// violations, transient failures, simulated OOMs and slow tasks firing
// inside speculative attempts, Gerenuk's output equals the fault-free
// baseline's; a bit flipped in a task's input mid-speculation is caught
// by the mutate-input canary, not recovered silently wrong; and under
// stalled native attempts (stragglers) hedging keeps the output and
// beats the unhedged wall time. Each run gets the caller's
// configuration with its own fault plan, breaker and hedge delay.
func Chaos(cfg Config, seed int64) (*Result, error) { return chaosMatrix(seed).Run(cfg) }

func chaosMatrix(seed int64) Matrix {
	straggle := &faults.Injector{Seed: seed, NativeDelayRate: 1, NativeDelay: 20 * time.Millisecond}
	return Matrix{
		ID: "Chaos", Title: fmt.Sprintf("WordCount under fault injection (seed %d)", seed),
		Header:  []string{"run", "tasks", "aborts", "panics", "retries", "skips", "outcome"},
		Apps:    []string{"WC"},
		Runner:  runWordCount,
		PerCell: true,
		Variants: []Variant{
			{Name: "baseline (no faults)", Only: mode(engine.Baseline), Mutate: faultPlan(nil, nil, 0)},
			{Name: "gerenuk (chaos)", Only: mode(engine.Gerenuk), Ref: "baseline (no faults)", OK: "output == baseline",
				Mutate: faultPlan(faults.Chaos(seed), engine.NewBreaker(4), 0)},
			// One bit of every task's input flipped during speculation.
			{Name: "gerenuk (bit flips)", Only: mode(engine.Gerenuk), WantErr: engine.ErrInputMutated, OK: "canary detected",
				Mutate: faultPlan(&faults.Injector{Seed: seed, FlipRate: 1}, nil, 0)},
			// Every native attempt stalls; hedged, the heap path overtakes.
			{Name: "gerenuk (stragglers)", Only: mode(engine.Gerenuk), Ref: "baseline (no faults)",
				Mutate: faultPlan(straggle, nil, 0)},
			{Name: "gerenuk (stragglers, hedged)", Only: mode(engine.Gerenuk), Ref: "baseline (no faults)",
				OK: "ok, hedged faster", Mutate: faultPlan(straggle, nil, time.Millisecond), Check: hedgedFaster},
		},
		Row: func(cells []*Cell) []string {
			c := cells[0]
			return []string{c.Variant, fmt.Sprint(c.Tasks), fmt.Sprint(c.Stats.Aborts),
				fmt.Sprint(c.Stats.PanicsContained), fmt.Sprint(c.Stats.Retries), fmt.Sprint(c.Stats.NativeSkips), c.outcome}
		},
		// The table stays byte-identical across same-seed runs; measured
		// wall times go in the (explicitly non-deterministic) note.
		Notes: func(cells []*Cell) []string {
			hedged := cells[len(cells)-1]
			slow := hedged.Peer("gerenuk (stragglers)")
			return []string{"every injected fault recovered to byte-equal output; input corruption detected, not masked",
				fmt.Sprintf("hedging cut the straggler wall time from %v to %v (%d hedges, %d wins)",
					slow.Wall.Round(time.Millisecond), hedged.Wall.Round(time.Millisecond),
					hedged.Stats.Hedges, hedged.Stats.HedgeWins)}
		},
	}
}

// faultPlan sets the three knobs a Chaos run owns. Chaos builds its
// matrix per call, so a breaker serves one run.
func faultPlan(plan *faults.Injector, breaker *engine.Breaker, hedgeAfter time.Duration) func(*Config) {
	return func(c *Config) { c.Injector, c.Breaker, c.HedgeAfter = plan, breaker, hedgeAfter }
}

// hedgedFaster holds a hedged straggler run to hedging and to beating
// the unhedged run's wall time.
func hedgedFaster(c *Cell) error {
	if c.Stats.Hedges == 0 {
		return errors.New("no attempt was hedged under stragglers")
	}
	if slow := c.Peer("gerenuk (stragglers)"); c.Wall >= slow.Wall {
		return fmt.Errorf("wall %v vs unhedged %v: %w", c.Wall, slow.Wall, errHedgeSlower)
	}
	return nil
}

// runWordCount is Chaos's runner: Spark WordCount, not a Table 1 app,
// over generated documents.
func runWordCount(c *Cell, cfg Config) error {
	ctx, in, err := sparkJob(cfg, c.Mode, suiteApp(c.App), sparkapps.ClsDoc, workload.GenDocs(30*cfg.Scale, 30, 3))
	if err != nil {
		return err
	}
	ctx.Env = cfg.env(c.App, c.Mode)
	counts, err := sparkapps.WordCount{}.Run(ctx, in)
	c.Stats, c.Wall, c.Tasks = ctx.Stats, ctx.Wall, ctx.Tasks
	if err != nil {
		return err
	}
	m, err := sparkapps.DecodeCounts(ctx.C.Codec, counts)
	c.Out = fmt.Append(nil, m) // fmt prints a map in key order
	return err
}
