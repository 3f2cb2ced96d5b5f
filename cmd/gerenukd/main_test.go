package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
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
