package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// checkTrace decodes a Chrome trace file: it must hold events, each with
// a phase and a name, and at least one event of every category in cats.
func checkTrace(t *testing.T, path string, cats ...string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf trace.ChromeTraceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: not Chrome trace JSON: %v", path, err)
	}
	byCat := map[string]int{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "" || e.Name == "" {
			t.Fatalf("%s: event with empty ph/name: %+v", path, e)
		}
		byCat[e.Cat]++
	}
	for _, cat := range cats {
		if byCat[cat] == 0 {
			t.Errorf("%s: no %q events (have %v)", path, cat, byCat)
		}
	}
}

// checkMetrics decodes a metrics snapshot file: it must hold every named
// instrument with a positive value (see trace.Snapshot.Has).
func checkMetrics(t *testing.T, path string, names ...string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var mf trace.MetricsFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatalf("%s: not metrics JSON: %v", path, err)
	}
	if mf.Schema != trace.MetricsSchemaVersion {
		t.Fatalf("%s: schema %d, want %d", path, mf.Schema, trace.MetricsSchemaVersion)
	}
	for _, name := range names {
		if !mf.Has(name) {
			t.Errorf("%s: instrument %q missing or zero", path, name)
		}
	}
}

// TestTracedRun: one partition on the smallest heap, so the simulated
// GC fires; the streamed trace carries the whole span hierarchy and the
// metrics snapshot counts the closure compiles.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	if err := run([]string{"-app", "PR", "-partitions", "1", "-trace", tf, "-metrics-json", mf}, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tf, "job", "stage", "task", "attempt", "phase", "gc", "shuffle", "compile")
	checkMetrics(t, mf, "compile_total")
}

// TestSpillingRun: a 1-byte shuffle budget spills every map task and the
// blocks are LZ4-compressed; the run's cross-mode checks must hold.
func TestSpillingRun(t *testing.T) {
	if err := run([]string{"-app", "IMC", "-scale", "1", "-shuffle-budget", "1", "-shuffle-compress", "lz4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFaultsRun: seed 1 on PR fires reduce kills, checkpoint
// corruption and full replica loss, and every loss is repaired by
// lineage re-execution or checkpoint resume.
func TestRecoveryFaultsRun(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	if err := run([]string{"-app", "PR", "-scale", "1", "-recovery-faults", "1", "-trace", tf, "-metrics-json", mf}, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tf, "job", "stage", "task", "attempt", "recovery")
	checkMetrics(t, mf, "recovery_reexec_total", "recovery_checkpoint_resumes_total",
		"recovery_checkpoint_corrupt_total", "recovery_checkpoints_saved_total")
}

// start runs the command in the background and returns the address its
// observability plane bound, read from the "serving http://ADDR/" line
// it prints, and a channel that yields run's result.
func start(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(args, pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "serving http://"); ok {
			go io.Copy(io.Discard, pr)
			addr, _, _ := strings.Cut(rest, "/")
			return addr, done
		}
	}
	t.Fatalf("run ended without serving: %v", <-done)
	return "", nil
}

// TestLiveScrape: a recovery-chaos run serving the observability plane
// is scraped while it runs (-obs-hold keeps it alive until the scrape
// lands), then its trace, metrics and flame files are checked.
func TestLiveScrape(t *testing.T) {
	dir := t.TempDir()
	tf, mf, ff := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json"), filepath.Join(dir, "o.folded")
	addr, done := start(t, "-app", "PR", "-scale", "1", "-recovery-faults", "1",
		"-obs-addr", "127.0.0.1:0", "-obs-hold", "60s", "-trace", tf, "-metrics-json", mf, "-flame", ff)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"go_goroutines ", "obs_scrapes_total "} {
		if !strings.Contains("\n"+string(scrape), "\n"+series) {
			t.Errorf("scrape has no %q line:\n%s", series, scrape)
		}
	}
	checkTrace(t, tf, "job", "stage", "task", "attempt", "gc", "obs")
	checkMetrics(t, mf, "obs_scrapes_total", "gc_pause_ns", "gc_pauses_attributed_total")

	f, err := os.Open(ff)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := obs.ValidateFolded(f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullChains == 0 {
		t.Errorf("flame graph folds no full job→phase chain: %+v", stats)
	}
}

// TestStreamRuns: a traced wordcount stream carries the stream spans and
// counters; a streamrank run checkpointing to disk resumes from that
// directory; -stream-resume without a directory is refused.
func TestStreamRuns(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	if err := run([]string{"-stream", "-app", "wordcount", "-scale", "1", "-trace", tf, "-metrics-json", mf}, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tf, "task", "stream")
	checkMetrics(t, mf, "stream_batches_total", "stream_records_total", "stream_windows_total", "stream_batch_latency_ns")

	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-stream", "-app", "streamrank", "-scale", "1", "-checkpoint-dir", ckpt}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-stream-resume"), io.Discard); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := run([]string{"-stream", "-stream-resume", "-app", "wordcount", "-scale", "1"}, io.Discard); err == nil {
		t.Error("-stream-resume without -checkpoint-dir ran")
	}
}

// TestFailedRunCloses: a run that fails after its session opened still
// closes it — the trace stream ends as valid JSON, the metrics snapshot
// is written and the observability plane stops serving.
func TestFailedRunCloses(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	addr, done := start(t, "-app", "nosuch", "-obs-addr", "127.0.0.1:0", "-trace", tf, "-metrics-json", mf)
	if err := <-done; err == nil {
		t.Fatal("-app nosuch ran")
	}
	checkTrace(t, tf)
	checkMetrics(t, mf)
	if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("the observability plane still serves after the failed run")
	}
}
