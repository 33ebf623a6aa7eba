package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)

func testHandler(healthy *bool) (http.Handler, *Obs) {
	o := New(Options{N: 4, TraceCapacity: 8})
	b := testBlock(1, 1, 2)
	o.OnProposed(b, 10*time.Millisecond)
	o.OnVoted(b, 11*time.Millisecond)
	o.OnQCObserved(b, 15*time.Millisecond)
	o.OnCommit(b, 20*time.Millisecond)
	o.OnStrength(b, 2, 30*time.Millisecond)
	h := NewHandler(ServerConfig{
		Obs:     o,
		Healthy: func() bool { return *healthy },
		Health:  func() any { return map[string]int{"diversity": 4} },
	})
	return h, o
}

func TestServerMetrics(t *testing.T) {
	healthy := true
	h, _ := testHandler(&healthy)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short exposition: %d lines", len(lines))
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, name := range []string{
		"sft_commits_total 1", "sft_votes_sent_total 1",
		`sft_strength_latency_seconds_count{level="2"} 1`,
		`sft_commit_to_strength_seconds_count{level="2"} 1`,
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("exposition missing %q", name)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	healthy := true
	h, _ := testHandler(&healthy)
	srv := httptest.NewServer(h)
	defer srv.Close()

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("/healthz status %d, want %d", resp.StatusCode, wantCode)
		}
		var body struct {
			Status string         `json:"status"`
			Health map[string]int `json:"health"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Status != wantStatus {
			t.Fatalf("status %q, want %q", body.Status, wantStatus)
		}
		if body.Health["diversity"] != 4 {
			t.Fatalf("health payload missing: %+v", body)
		}
	}
	check(http.StatusOK, "ok")
	healthy = false
	check(http.StatusServiceUnavailable, "unavailable")
}

func TestServerTracez(t *testing.T) {
	healthy := true
	h, _ := testHandler(&healthy)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/tracez?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez status %d", resp.StatusCode)
	}
	var body struct {
		Traces []struct {
			ID        string  `json:"id"`
			Height    uint64  `json:"height"`
			Committed float64 `json:"committed_s"`
			Strengths []struct {
				X int `json:"x"`
			} `json:"strengths"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(body.Traces))
	}
	tr := body.Traces[0]
	if tr.Height != 1 || tr.ID == "" || tr.Committed != 0.02 {
		t.Fatalf("trace %+v", tr)
	}
	if len(tr.Strengths) != 1 || tr.Strengths[0].X != 2 {
		t.Fatalf("strength rises %+v", tr.Strengths)
	}
}

func TestServerPprofAndDisabled(t *testing.T) {
	healthy := true
	h, _ := testHandler(&healthy)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}

	// Without a sink, the data endpoints 404 but health still serves.
	none := httptest.NewServer(NewHandler(ServerConfig{}))
	defer none.Close()
	for path, want := range map[string]int{
		"/metrics": http.StatusNotFound,
		"/tracez":  http.StatusNotFound,
		"/healthz": http.StatusOK,
	} {
		resp, err := http.Get(none.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
