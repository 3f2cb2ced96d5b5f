package bench

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

// FlagGroup selects which optional shared flags a binary exposes; the
// sizing flags (-scale, the pool-size flag, -partitions, -iters,
// -engine) and the output flags (-trace, -metrics-json) are always
// bound.
type FlagGroup uint

const (
	// HeapFlag is -heap.
	HeapFlag FlagGroup = 1 << iota
	// TuningFlags are the per-run fault-tolerance and exchange knobs:
	// -hedge-after -shuffle-budget -shuffle-compress -replicas
	// -checkpoint-every -stage-deadline.
	TuningFlags
	// CheckpointDirFlag is -checkpoint-dir.
	CheckpointDirFlag
	// ObsFlags are -obs-addr -obs-hold -flame.
	ObsFlags
)

// Flags is the one flag binder gerenukrun, gerenukbench and gerenukd
// share: every flag that means the same thing in two binaries is
// defined here, once, and lands in one Config. A new job.Env knob gets
// its flag here and nowhere else.
type Flags struct {
	// ObsAddr is the address the observability plane serves on ("" =
	// off). Bound to -obs-addr under ObsFlags; gerenukd, whose plane is
	// always on, assigns its own -addr after parsing.
	ObsAddr string

	prog     string
	cfg      Config
	engine   string
	compress string
	ckptDir  string
	traceOut string
	metrics  string
	flameOut string
	obsHold  time.Duration
}

// BindFlags defines the shared flags on fs. def supplies the sizing
// defaults (Scale, Workers, Partitions, Iters, HeapName), which differ
// per binary; workersFlag names the pool-size flag ("workers", or
// "job-workers" in gerenukd where -workers counts service slots).
func BindFlags(fs *flag.FlagSet, prog, workersFlag string, def Config, groups FlagGroup) *Flags {
	f := &Flags{prog: prog, cfg: def}
	c := &f.cfg
	fs.IntVar(&c.Scale, "scale", def.Scale, "workload scale multiplier")
	fs.IntVar(&c.Workers, workersFlag, def.Workers, "executor pool size per job")
	fs.IntVar(&c.Partitions, "partitions", def.Partitions, "RDD/shuffle partitions (fewer = more heap pressure per task)")
	fs.IntVar(&c.Iters, "iters", def.Iters, "iterations for iterative apps")
	fs.StringVar(&f.engine, "engine", "compiled", "native execution backend: compiled (closure-compiled SERs) or interp (tree-walking interpreter)")
	fs.StringVar(&f.traceOut, "trace", "", "stream Chrome trace_event JSON to this file")
	fs.StringVar(&f.metrics, "metrics-json", "", "write metrics-registry JSON to this file on exit")
	if groups&HeapFlag != 0 {
		fs.StringVar(&c.HeapName, "heap", def.HeapName, "executor heap size for Spark apps (10GB|15GB|20GB)")
	}
	if groups&TuningFlags != 0 {
		fs.DurationVar(&c.HedgeAfter, "hedge-after", 0, "hedge straggling native attempts with the heap path after this delay (0 = off)")
		fs.Int64Var(&c.Shuffle.MemoryBudget, "shuffle-budget", 0, "map-side shuffle memory budget in bytes (0 = in-memory, >0 spills sorted runs)")
		fs.StringVar(&f.compress, "shuffle-compress", "", "shuffle block codec: none|lz4")
		fs.IntVar(&c.Shuffle.Replicas, "replicas", 0, "shuffle block replica count (0/1 = no replication)")
		fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 0, "checkpoint task fold state every N invocations (0 = off)")
		fs.DurationVar(&c.StageDeadline, "stage-deadline", 0, "watchdog deadline per stage; hangs become retryable timeouts (0 = off)")
	}
	if groups&CheckpointDirFlag != 0 {
		fs.StringVar(&f.ckptDir, "checkpoint-dir", "", "persist checkpoints to this directory so a killed run or a restarted service resumes them (\"\" = in-memory)")
	}
	if groups&ObsFlags != 0 {
		fs.StringVar(&f.ObsAddr, "obs-addr", "", "serve the observability plane (/metrics /healthz /statusz /flamez /debug/pprof) on this address")
		fs.DurationVar(&f.obsHold, "obs-hold", 0, "after the run, wait up to this long for at least one /metrics scrape before exiting (needs -obs-addr)")
		fs.StringVar(&f.flameOut, "flame", "", "write the span stream as collapsed-stack flame graph text to this file")
	}
	return f
}

// errFlags marks a ParseArgs error; the FlagSet has already printed it.
var errFlags = errors.New("invalid flags")

// ParseArgs parses a command's arguments into fs, a ContinueOnError set.
func ParseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	return nil
}

// Exit ends a command whose run returned err: quietly on success or
// -help, with status 2 on a ParseArgs error, and otherwise by printing
// err after prog and exiting with code.
func Exit(prog string, err error, code int) {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errFlags):
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(code)
}

// Session is what the parsed flags started: the resolved Config and the
// live tracing/observability handles behind it.
type Session struct {
	// Config has Backend, Shuffle.Compression, Trace, Checkpoints and —
	// when the observability plane is on — a GC-attributing StageHook
	// filled in.
	Config Config
	// Trace is nil unless an output or observability flag asked for it.
	Trace *trace.Tracer
	// Server is the observability plane, nil when off. Mount routes and
	// status sources on it, then call Listen.
	Server *obs.Server
	// GC charges real runtime GC pauses to jobs at stage boundaries; nil
	// when the observability plane is off.
	GC *obs.GCAttributor

	f         *Flags
	out       io.Writer
	flame     *obs.Flame
	traceFile *os.File
}

// Open resolves the parsed flags into a Session that reports what it
// starts and writes to stdout. The observability plane is strictly
// opt-in: with none of its flags set no tracer subscriber exists, no
// runtime/metrics read happens, and no server goroutine ever starts.
func (f *Flags) Open(stdout io.Writer) (*Session, error) {
	s := &Session{Config: f.cfg, f: f, out: stdout}
	cfg := &s.Config
	var err error
	if cfg.Backend, err = engine.ParseBackend(f.engine); err != nil {
		return nil, err
	}
	if cfg.Shuffle.Compression, err = shuffle.ParseCompression(f.compress); err != nil {
		return nil, err
	}
	// Before the trace file is created, so a bad directory leaks no file.
	if f.ckptDir != "" {
		ckpts, err := recovery.OpenDiskCheckpointStore(f.ckptDir)
		if err != nil {
			return nil, err
		}
		cfg.Checkpoints = ckpts
		fmt.Fprintf(stdout, "%s: checkpoints persist to %s (%d recovered)\n", f.prog, f.ckptDir, ckpts.Len())
	}
	obsOn := f.ObsAddr != "" || f.flameOut != ""
	if f.traceOut != "" || f.metrics != "" || obsOn {
		s.Trace = trace.New()
		cfg.Trace = s.Trace
	}
	if f.traceOut != "" {
		if s.traceFile, err = os.Create(f.traceOut); err != nil {
			return nil, err
		}
		// Stream events as they are emitted so long runs never hold the
		// whole trace in memory.
		if err := s.Trace.StreamTo(s.traceFile); err != nil {
			return nil, err
		}
	}
	if f.ObsAddr != "" {
		s.Server = obs.NewServer(s.Trace)
		s.flame = s.Server.Flame()
	} else if f.flameOut != "" {
		s.flame = obs.NewFlame()
		s.Trace.Subscribe(s.flame.Observe)
	}
	if obsOn {
		// At every stage boundary: charge the GC pauses that landed in
		// the stage's window to the active (app, mode) and fold the
		// charge into the stage's breakdown (it propagates into job
		// totals).
		s.GC = obs.NewGCAttributor(s.Trace)
		cfg.StageHook = s.GC.StageHook("")
	}
	return s, nil
}

// Listen starts serving the observability plane (a no-op when it is
// off). Routes must be mounted on Server before.
func (s *Session) Listen() error {
	if s.Server == nil {
		return nil
	}
	if err := s.Server.Start(s.f.ObsAddr); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%s: serving http://%s/{metrics,healthz,statusz,flamez,debug/pprof}\n", s.f.prog, s.Server.Addr())
	return nil
}

// Close is the shared teardown: hold for a scrape (-obs-hold), export
// the flame graph, close the trace stream, write the metrics snapshot
// with extra merged in, stop the server. It keeps going after a failed
// step — a long run's other artifacts are still worth having — and
// returns the first error.
func (s *Session) Close(extra map[string]any) error {
	f := s.f
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.Server != nil && f.obsHold > 0 {
		if s.Server.Scrapes() == 0 {
			fmt.Fprintf(s.out, "%s: holding up to %v for a /metrics scrape\n", f.prog, f.obsHold)
		}
		if !s.Server.WaitScraped(f.obsHold) {
			fmt.Fprintf(os.Stderr, "%s: obs-hold expired with no scrape\n", f.prog)
		}
	}
	if f.flameOut != "" {
		// Export before CloseStream so the flame-export instant is part
		// of the streamed trace.
		s.Trace.Instant("obs", "flame-export",
			trace.Str("path", f.flameOut), trace.I64("spans", s.flame.Spans()))
		err := s.flame.WriteFoldedFile(f.flameOut)
		keep(err)
		if err == nil {
			fmt.Fprintf(s.out, "%s: wrote flame graph %s (%d spans folded; render with flamegraph.pl)\n",
				f.prog, f.flameOut, s.flame.Spans())
		}
	}
	if s.traceFile != nil {
		keep(s.Trace.CloseStream())
		keep(s.traceFile.Close())
		fmt.Fprintf(s.out, "%s: streamed trace %s (load in Perfetto or chrome://tracing)\n", f.prog, f.traceOut)
	}
	if f.metrics != "" {
		err := s.Trace.WriteMetricsJSONFile(f.metrics, extra)
		keep(err)
		if err == nil {
			fmt.Fprintf(s.out, "%s: wrote metrics %s\n", f.prog, f.metrics)
		}
	}
	if s.Server != nil {
		keep(s.Server.Close())
	}
	return first
}
