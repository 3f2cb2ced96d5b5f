package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// TestQueryParams drives the submit and tenant handlers with well-formed
// and malformed numeric parameters: a malformed one is a 400 naming it,
// and changes nothing — no tenant reconfigured, no job enqueued.
func TestQueryParams(t *testing.T) {
	for _, tc := range []struct {
		target string
		code   int
		param  string // named in the 400's error
		weight int    // bob's weight afterwards (configured as 3)
		jobs   int    // jobs the daemon accepted
	}{
		{target: "/tenant?name=bob&weight=2", code: 200, weight: 2},
		{target: "/tenant?name=bob&weight=two", code: 400, param: "weight", weight: 3},
		{target: "/tenant?name=bob&weight=5&quota=1.5", code: 400, param: "quota", weight: 3},
		{target: "/tenant?name=bob&weight=5&depth=x", code: 400, param: "depth", weight: 3},
		{target: "/submit?tenant=bob&app=UAH&chaos=7&memory=4096&wait=1", code: 200, weight: 3, jobs: 1},
		{target: "/submit?tenant=bob&app=UAH&chaos=x7", code: 400, param: "chaos", weight: 3},
		{target: "/submit?tenant=bob&app=UAH&memory=4k", code: 400, param: "memory", weight: 3},
	} {
		t.Run(tc.target, func(t *testing.T) {
			svc := cluster.New(cluster.Config{Workers: 1})
			defer svc.Close()
			svc.ConfigureTenant("bob", cluster.TenantConfig{Weight: 3})
			d := &daemon{svc: svc, base: bench.Quick(), jobs: map[string]*cluster.Job{}}
			mux := http.NewServeMux()
			mux.HandleFunc("/submit", d.handleSubmit)
			mux.HandleFunc("/tenant", d.handleTenant)

			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.target, nil))
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
			}
			if tc.param != "" {
				if msg, _ := body["error"].(string); !strings.Contains(msg, tc.param) {
					t.Errorf("error %q does not name %s", msg, tc.param)
				}
			}
			if tc.jobs > 0 && body["state"] != "succeeded" {
				t.Errorf("job reply %v, want state succeeded", body)
			}

			st := svc.Status()
			if len(st) != 1 || st[0].Tenant != "bob" || st[0].Weight != tc.weight {
				t.Errorf("tenants = %+v, want bob with weight %d", st, tc.weight)
			}
			if len(d.jobs) != tc.jobs || st[0].Queued+st[0].Running != 0 {
				t.Errorf("jobs accepted = %d (queued %d, running %d), want %d finished",
					len(d.jobs), st[0].Queued, st[0].Running, tc.jobs)
			}
		})
	}
}

// call sends one request and returns the reply body; a status other
// than 200 is an error.
func call(method, url string) ([]byte, error) { return callStatus(method, url, http.StatusOK) }

// callStatus is call expecting status want.
func callStatus(method, url string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, body)
	}
	return body, err
}

// TestService boots the service on a free port and drives it over HTTP
// the way three tenants would: concurrent jobs, one tenant weighted, one
// under the chaos fault plan. Output digests must agree across modes and
// across the calm and chaos tenants; /await and /cancel find a finished
// job by id and 404 an unknown one; /statusz, /jobs and /metrics carry
// the per-tenant view; /quitz drains it and run returns.
func TestService(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-workers", "4", "-trace", tf, "-metrics-json", mf}, pw)
		pw.Close()
		done <- err
	}()
	var base string
	for sc := bufio.NewScanner(pr); base == "" && sc.Scan(); {
		if _, rest, ok := strings.Cut(sc.Text(), "serving http://"); ok {
			addr, _, _ := strings.Cut(rest, "/")
			base = "http://" + addr
		}
	}
	if base == "" {
		t.Fatalf("run ended without serving: %v", <-done)
	}
	go io.Copy(io.Discard, pr)

	if _, err := call(http.MethodPost, base+"/tenant?name=bob&weight=2"); err != nil {
		t.Fatal(err)
	}
	submits := []string{
		"tenant=alice&app=PR&mode=gerenuk",
		"tenant=alice&app=PR&mode=baseline",
		"tenant=bob&app=KM&mode=gerenuk",
		"tenant=bob&app=IUF&mode=gerenuk",
		"tenant=mallory&app=PR&mode=gerenuk&chaos=7",
	}
	jobs := make([]jobJSON, len(submits))
	errs := make([]error, len(submits))
	var wg sync.WaitGroup
	for i, q := range submits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := call(http.MethodPost, base+"/submit?"+q+"&wait=1")
			if err == nil {
				err = json.Unmarshal(body, &jobs[i])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	sha := map[string]string{}
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if j.State != "succeeded" || j.OutputSHA == "" {
			t.Errorf("%s: reply %+v, want succeeded with an output digest", submits[i], j)
		}
		sha[j.Tenant+"/"+j.Name] = j.OutputSHA
	}
	if sha["alice/PR/gerenuk"] != sha["alice/PR/baseline"] {
		t.Error("PR: gerenuk output digest differs from baseline")
	}
	if sha["mallory/PR/gerenuk"] != sha["alice/PR/gerenuk"] {
		t.Error("PR: the chaos tenant's output digest differs from the calm tenant's")
	}

	var awaited jobJSON
	body, err := call(http.MethodGet, base+"/await?id="+jobs[0].ID)
	if err == nil {
		err = json.Unmarshal(body, &awaited)
	}
	if err != nil || awaited != jobs[0] {
		t.Errorf("/await?id=%s = %+v (%v), want the submit reply %+v", jobs[0].ID, awaited, err, jobs[0])
	}
	var canceled struct {
		ID       string
		Dequeued bool
		State    string
	}
	body, err = call(http.MethodPost, base+"/cancel?id="+jobs[0].ID)
	if err == nil {
		err = json.Unmarshal(body, &canceled)
	}
	if err != nil || canceled.ID != jobs[0].ID || canceled.Dequeued || canceled.State != "succeeded" {
		t.Errorf("/cancel of a finished job = %+v (%v), want it left succeeded, not dequeued", canceled, err)
	}
	for _, path := range []string{"/await?id=nope", "/cancel?id=nope"} {
		if _, err := callStatus(http.MethodPost, base+path, http.StatusNotFound); err != nil {
			t.Error(err)
		}
	}

	body, err = call(http.MethodGet, base+"/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var statusz struct {
		Status struct{ Cluster []cluster.TenantStatus }
	}
	if err := json.Unmarshal(body, &statusz); err != nil {
		t.Fatal(err)
	}
	tenants := map[string]cluster.TenantStatus{}
	for _, ts := range statusz.Status.Cluster {
		tenants[ts.Tenant] = ts
		if ts.Done < 1 || ts.P50LatencyNs <= 0 {
			t.Errorf("tenant %s: done %d, p50 latency %v", ts.Tenant, ts.Done, ts.P50LatencyNs)
		}
	}
	if len(tenants) != 3 || tenants["bob"].Weight != 2 {
		t.Errorf("/statusz cluster view = %+v, want alice, bob (weight 2) and mallory", statusz.Status.Cluster)
	}
	body, err = call(http.MethodGet, base+"/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []jobJSON
	if err := json.Unmarshal(body, &listed); err != nil || len(listed) != len(submits) {
		t.Errorf("/jobs lists %d jobs (%v), want %d", len(listed), err, len(submits))
	}
	scrape, err := call(http.MethodGet, base+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`cluster_jobs_done_total{tenant="alice"}`,
		`cluster_jobs_done_total{tenant="mallory"}`,
		`cluster_job_latency_ns_count{tenant=`,
		`task_latency_ns_count{tenant="bob"}`,
		`gc_pause_ns_count{tenant="mallory"`,
	} {
		if !strings.Contains(string(scrape), series) {
			t.Errorf("/metrics has no %s series", series)
		}
	}

	if _, err := call(http.MethodPost, base+"/quitz"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, tf, mf)
}

// checkArtifacts decodes the drained service's trace and metrics files:
// the trace holds job, stage, task and cluster events, and the snapshot
// holds the per-tenant cluster and GC-pause families with positive
// counts.
func checkArtifacts(t *testing.T, tracePath, metricsPath string) {
	t.Helper()
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf trace.ChromeTraceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: not Chrome trace JSON: %v", tracePath, err)
	}
	byCat := map[string]int{}
	for _, e := range tf.TraceEvents {
		byCat[e.Cat]++
	}
	for _, cat := range []string{"job", "stage", "task", "cluster"} {
		if byCat[cat] == 0 {
			t.Errorf("trace has no %q events (have %v)", cat, byCat)
		}
	}
	if raw, err = os.ReadFile(metricsPath); err != nil {
		t.Fatal(err)
	}
	var mf trace.MetricsFile
	if err := json.Unmarshal(raw, &mf); err != nil || mf.Schema != trace.MetricsSchemaVersion {
		t.Fatalf("%s: not a schema %d metrics file (schema %d, %v)", metricsPath, trace.MetricsSchemaVersion, mf.Schema, err)
	}
	for _, family := range []string{"cluster_jobs_submitted_total", "cluster_jobs_done_total", "cluster_job_latency_ns", "gc_pause_ns"} {
		if !mf.Has(family) {
			t.Errorf("metrics have no positive %s series", family)
		}
	}
}
