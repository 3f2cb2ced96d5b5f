package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/arena"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/recovery"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// The layer replay calls each layer's public functions directly, over
// the inputs the jobs ran on, inside benchmark-owned spans. Everything
// runs on this goroutine except the pool-scaling row.

// compileReplay is what compiling one job's drivers costs on a fresh
// Compiled over the same program.
type compileReplay struct {
	transformMS float64
	closureMS   float64
	drivers     int
	declined    int
}

// replayCompile re-compiles every driver the finished job compiled
// (the keys of comp.SERs) on a fresh Compiled.
func replayCompile(rec *recorder, parent int, job string, comp *engine.Compiled) (compileReplay, error) {
	drivers := make([]string, 0, len(comp.SERs))
	for d := range comp.SERs {
		drivers = append(drivers, d)
	}
	sort.Strings(drivers)
	out := compileReplay{drivers: len(drivers)}
	var fresh *engine.Compiled
	var err error
	out.transformMS = ms(rec.time(parent, job, "compiler.transform", func() {
		fresh = engine.Compile(comp.Prog)
		err = fresh.Precompile(drivers...)
	}))
	if err != nil {
		return out, fmt.Errorf("replay: precompile: %w", err)
	}
	out.closureMS = ms(rec.time(parent, job, "compile.closure", func() {
		for _, d := range drivers {
			if p, _ := fresh.Closure(d); p == nil && fresh.CanRunNative(d) {
				out.declined++
			}
		}
	}))
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }

func perRec(d time.Duration, records int64) float64 {
	if records == 0 {
		return 0
	}
	return ns(d) / float64(records)
}

func mbPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / mib / d.Seconds()
}

// best3 steadies a replay timing: the fastest of three runs. Whatever
// disturbs a single-goroutine loop over fixed work only ever adds time.
func best3(f func() time.Duration) time.Duration { return min(f(), f(), f()) }

var sink int64 // keeps replay loops from being optimised away

const (
	closureBytes = 4 << 10 // the front-ends' default simulated closure size
	emptyTasks   = 32      // heap.New makes an empty task cost milliseconds at these heap sizes
	canaryRecs   = 2000    // the canary re-hashes the whole buffer per key group; keep the buffer small
	sweepRecords = 5000    // small inputs are swept repeatedly until a timing covers this many records
)

func countRecords(parts [][]byte) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(engine.RecordOffsets(p)))
	}
	return n
}

func totalLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// replayLayers measures every replay metric for one app. comp is the
// Compiled of a finished job over the same inputs: its drivers are
// compiled and their closures cached, as they are for a running job's
// tasks.
func replayLayers(rec *recorder, job string, a *app, comp *engine.Compiled, cr compileReplay, e env) (metricSet, error) {
	m := metricSet{}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	root := rec.begin(0, job, "replay:"+a.name)
	defer rec.end(root)
	// Every timed span starts from a collected heap, so one layer's
	// garbage is not collected on the next layer's clock.
	in := func(name string, f func()) time.Duration {
		runtime.GC()
		return rec.time(root, job, name, f)
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	set("compiler.transform_ms", cr.transformMS)
	set("compile.closure_ms", cr.closureMS)
	set("compiler.drivers", float64(cr.drivers))
	set("compile.declined", float64(cr.declined))

	// ---- workload ----
	set("workload.encode_mb_per_s", mbPerS(totalLen(a.parts), best3(func() time.Duration {
		return in("workload.Encode", func() {
			_, err := workload.Encode(comp.Codec, a.class, a.objs, partitions)
			note(err)
		})
	})))

	// ---- arena ----
	part := a.parts[0]
	offs := engine.RecordOffsets(part)
	const adopts, reads = 64, 16
	set("arena.adopt_copy_mb_per_s", mbPerS(adopts*len(part), best3(func() time.Duration {
		return in("arena.AdoptBytes", func() {
			for i := 0; i < adopts; i++ {
				sink += int64(arena.New().AdoptBytes("in", part).Len())
			}
		})
	})))
	set("arena.adopt_owned_ns", ns(best3(func() time.Duration {
		return in("arena.AdoptBytesOwned", func() {
			for i := 0; i < adopts; i++ {
				sink += int64(arena.New().AdoptBytesOwned("in", part).Len())
			}
		})
	}))/adopts)
	ar := arena.New()
	region := ar.AdoptBytesOwned("in", part)
	set("arena.read_ns", perRec(best3(func() time.Duration {
		return in("arena.ReadNative", func() {
			base := region.Base()
			for s := 0; s < reads; s++ {
				for _, off := range offs {
					sink += ar.ReadNative(base, int64(off), 4)
				}
			}
		})
	}), int64(reads*len(offs))))

	// ---- heap + serde ----
	// Every native attempt builds a control heap a quarter the size of
	// the workload's heap configuration; that is the heap.New most tasks pay.
	control := heap.Config{YoungSize: a.heap.YoungSize / 4, OldSize: a.heap.OldSize / 4}
	const heaps = 8
	set("heap.new_us", us(best3(func() time.Duration {
		return in("heap.New", func() {
			for i := 0; i < heaps; i++ {
				sink += heap.New(comp.Prog.Reg, control).UsedBytes()
			}
		})
	}))/heaps)
	var deser, ser, gc time.Duration
	in("serde.Deserialize+Serialize", func() {
		h := heap.New(comp.Prog.Reg, a.heap)
		var out []byte
		for off := 0; off < len(part); {
			t0 := time.Now()
			addr, next, err := comp.Codec.Deserialize(h, part, off, a.class)
			t1 := time.Now()
			if err != nil {
				note(err)
				return
			}
			out, err = comp.Codec.Serialize(h, addr, a.class, out[:0])
			ser += time.Since(t1)
			deser += t1.Sub(t0)
			if err != nil {
				note(err)
				return
			}
			off = next
		}
		gc = h.Stats().GCTime
	})
	set("serde.deser_ns_per_rec", perRec(deser, int64(len(offs))))
	set("serde.ser_ns_per_rec", perRec(ser, int64(len(offs))))
	set("heap.probe_gc_ms", ms(gc))
	if firstErr != nil {
		return nil, fmt.Errorf("replay: %w", firstErr)
	}

	// ---- engine: one task attempt ----
	specs := make([]engine.TaskSpec, len(a.parts))
	for i, p := range a.parts {
		specs[i] = engine.TaskSpec{
			Name: fmt.Sprintf("replay-%s-p%d", a.mapDriver, i), Driver: a.mapDriver,
			Invocations:  []map[string]engine.Input{{"in": {Class: a.class, Buf: p}}},
			ClosureBytes: closureBytes,
		}
	}
	records := countRecords(a.parts)
	sweeps := int64(1)
	if records > 0 {
		sweeps = min(max(sweepRecords/records, 1), e.sz.maxSweeps)
	}
	mid := make([][]byte, len(specs))
	runTasks := func(name string, ex *engine.Executor) float64 {
		return perRec(best3(func() time.Duration {
			return in(name, func() {
				for s := int64(0); s < sweeps; s++ {
					for i, spec := range specs {
						res, err := ex.RunTask(spec)
						note(err)
						mid[i] = res.Out
					}
				}
			})
		}), sweeps*records)
	}
	interpNS := runTasks("engine.RunTask/interp",
		&engine.Executor{C: comp, Mode: engine.Gerenuk, HeapCfg: a.heap, Backend: engine.BackendInterp})
	heapNS := runTasks("engine.RunTask/heap", &engine.Executor{C: comp, Mode: engine.Baseline, HeapCfg: a.heap})
	native := &engine.Executor{C: comp, Mode: engine.Gerenuk, HeapCfg: a.heap}
	nativeNS := runTasks("engine.RunTask/native", native)
	set("engine.task_native_ns_per_rec", nativeNS)
	set("engine.task_interp_ns_per_rec", interpNS)
	set("engine.task_heap_ns_per_rec", heapNS)
	set("engine.compiled_speedup_x", interpNS/nativeNS)
	set("engine.native_speedup_x", heapNS/nativeNS)

	empty := engine.TaskSpec{
		Name: "replay-empty", Driver: a.mapDriver,
		Invocations:  []map[string]engine.Input{{"in": {Class: a.class}}},
		ClosureBytes: closureBytes,
	}
	set("engine.task_fixed_us", us(best3(func() time.Duration {
		return in("engine.RunTask/empty", func() {
			for i := 0; i < emptyTasks; i++ {
				_, err := native.RunTask(empty)
				note(err)
			}
		})
	}))/emptyTasks)

	// ---- engine: pool ----
	newNative := func() *engine.Executor {
		return &engine.Executor{C: comp, Mode: engine.Gerenuk, HeapCfg: a.heap}
	}
	empties := make([]engine.TaskSpec, emptyTasks)
	for i := range empties {
		empties[i] = empty
		empties[i].Name = fmt.Sprintf("replay-empty-%d", i)
	}
	set("engine.pool_dispatch_us_per_task", us(best3(func() time.Duration {
		var dispatch time.Duration
		in("engine.Pool.Run/empty", func() {
			res, err := (&engine.Pool{Workers: 1}).Run(newNative, empties)
			note(err)
			if err == nil {
				dispatch = res.Wall.Total - res.Stats.Total
			}
		})
		return dispatch
	}))/emptyTasks)
	stageWall := func(workers int) time.Duration {
		return best3(func() time.Duration {
			return in(fmt.Sprintf("engine.Pool.Run/w%d", workers), func() {
				for s := int64(0); s < sweeps; s++ {
					_, err := (&engine.Pool{Workers: workers}).Run(newNative, specs)
					note(err)
				}
			})
		})
	}
	set("engine.pool_scaling_x", ns(stageWall(1))/ns(stageWall(2)))
	if firstErr != nil {
		return nil, fmt.Errorf("replay: task: %w", firstErr)
	}

	// ---- shuffle ----
	if a.mid != nil {
		var err error
		if mid, err = a.mid(comp); err != nil {
			return nil, fmt.Errorf("replay: shuffle input: %w", err)
		}
	}
	midRecords := countRecords(mid)
	var blocks [][]byte
	for _, v := range []struct {
		suffix string
		cfg    shuffle.Config
	}{{"mem", shuffle.Config{}}, {"spill", spillConfig(e)}} {
		cfg := v.cfg
		cfg.Partitions = partitions
		// exchange runs one whole exchange and times its three steps.
		type steps struct{ add, close, fetch time.Duration }
		var st shuffle.Stats
		exchange := func() (t steps, err error) {
			ex, err := shuffle.NewExchange(shuffle.NewStore(), cfg, "replay-"+v.suffix,
				comp.Layouts, a.midClass, a.keyField, nil)
			if err != nil {
				return t, err
			}
			for i, p := range mid {
				w := ex.Writer(i)
				t0 := time.Now()
				if err := w.Add(p); err != nil {
					return t, err
				}
				t1 := time.Now()
				if err := w.Close(); err != nil {
					return t, err
				}
				t.add += t1.Sub(t0)
				t.close += time.Since(t1)
			}
			t0 := time.Now()
			blocks, err = ex.FetchAll()
			t.fetch = time.Since(t0)
			st = ex.Stats()
			return t, err
		}
		// The fastest whole exchange of three supplies all three rows.
		var best steps
		for i := 0; i < 3; i++ {
			in("shuffle.exchange/"+v.suffix, func() {
				t, err := exchange()
				note(err)
				if i == 0 || t.add+t.close+t.fetch < best.add+best.close+best.fetch {
					best = t
				}
			})
		}
		if firstErr != nil {
			return nil, fmt.Errorf("replay: %s exchange: %w", v.suffix, firstErr)
		}
		set("shuffle.add_ns_per_rec_"+v.suffix, perRec(best.add, midRecords))
		set("shuffle.close_ms_"+v.suffix, ms(best.close))
		set("shuffle.fetch_ms_"+v.suffix, ms(best.fetch))
		if v.suffix == "spill" {
			ratio := 0.0
			if st.WireBytesFetched > 0 {
				ratio = float64(st.BytesFetched) / float64(st.WireBytesFetched)
			}
			set("shuffle.compress_ratio", ratio)
			set("shuffle.spill_runs", float64(st.Spills))
		}
	}

	// ---- engine: driver-side grouping over the fetched blocks ----
	set("engine.groupbykey_ns_per_rec", perRec(best3(func() time.Duration {
		return in("engine.GroupByKey", func() {
			for _, b := range blocks {
				keys, _, err := engine.GroupByKey(comp.Layouts, a.midClass, a.keyField, b)
				note(err)
				sink += int64(len(keys))
			}
		})
	}), midRecords))
	set("engine.partition_ns_per_rec", perRec(best3(func() time.Duration {
		return in("engine.Partition", func() {
			for _, p := range mid {
				parts, err := engine.Partition(comp.Layouts, a.midClass, a.keyField, p, partitions)
				note(err)
				sink += int64(len(parts))
			}
		})
	}), midRecords))

	// ---- engine: the mutate-input canary on a key-grouped spec ----
	block := blocks[0]
	if boffs := engine.RecordOffsets(block); len(boffs) > canaryRecs {
		block = block[:boffs[canaryRecs]]
	}
	_, groups, err := engine.GroupByKey(comp.Layouts, a.midClass, a.keyField, block)
	note(err)
	grouped := engine.TaskSpec{Name: "replay-canary", Driver: a.reduceDriver, ClosureBytes: closureBytes}
	for _, g := range groups {
		grouped.Invocations = append(grouped.Invocations,
			map[string]engine.Input{"in": {Class: a.midClass, Buf: block, Offs: g}})
	}
	canaryRecords := int64(len(engine.RecordOffsets(block)))
	fold := func(name string, verify bool) float64 {
		ex := &engine.Executor{C: comp, Mode: engine.Gerenuk, HeapCfg: a.heap, VerifyInputs: verify}
		return perRec(best3(func() time.Duration {
			return in(name, func() {
				_, err := ex.RunTask(grouped)
				note(err)
			})
		}), canaryRecords)
	}
	canary := 0.0
	if canaryRecords > 0 {
		// With few key groups the difference is below the noise of two
		// task runs; it then reads 0 rather than a negative cost.
		canary = max(0, fold("engine.RunTask/fold+canary", true)-fold("engine.RunTask/fold", false))
	}
	set("engine.canary_ns_per_rec", canary)

	// ---- recovery ----
	const saves, diskSaves = 16, 4
	store := recovery.NewCheckpointStore()
	set("recovery.ckpt_save_mb_per_s", mbPerS(saves*len(part), best3(func() time.Duration {
		return in("recovery.Save", func() {
			for i := 0; i < saves; i++ {
				store.Save("replay", i, part)
			}
		})
	})))
	set("recovery.ckpt_load_mb_per_s", mbPerS(saves*len(part), best3(func() time.Duration {
		return in("recovery.Load", func() {
			for i := 0; i < saves; i++ {
				ck, _, _ := store.Load("replay")
				sink += int64(len(ck.Data))
			}
		})
	})))
	disk, err := recovery.OpenDiskCheckpointStore(filepath.Join(e.tmp, "ckpt"))
	note(err)
	if firstErr != nil {
		return nil, fmt.Errorf("replay: %w", firstErr)
	}
	set("recovery.disk_save_mb_per_s", mbPerS(diskSaves*len(part), best3(func() time.Duration {
		return in("recovery.Save/disk", func() {
			for i := 0; i < diskSaves; i++ {
				disk.Save("replay", i, part)
			}
		})
	})))
	disk.Drop("replay")
	return m, nil
}
