package server_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
)

func startMetricsServer(t *testing.T, players int) (addr string, srv *server.Server, reg *obs.Registry) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 32, Good: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	reg = obs.NewRegistry()
	srv, err = server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err = srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv, reg
}

// TestMetricsEndpointGolden runs a small deterministic workload against an
// instrumented server and pins the Prometheus text exposition served for
// it: exact counter lines for every deterministic metric, HELP/TYPE
// grouping, and the content type. Clients share the server's registry, so
// the scrape covers the server_*, billboard_*, and client_* families at
// once — exactly what cmd/billboard-server serves on -metrics-addr.
func TestMetricsEndpointGolden(t *testing.T) {
	addr, _, reg := startMetricsServer(t, 2)

	cs := make([]*client.Client, 2)
	for i := range cs {
		c, err := client.DialOptions(addr, i, "tok", client.Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	for i, c := range cs {
		if _, err := c.Probe(i); err != nil { // objects 0 and 1 (bad: good is planted elsewhere at this seed or not — value irrelevant)
			t.Fatal(err)
		}
	}
	// Both players batch one post with the round barrier; the calls block
	// until both arrive, so they must run concurrently.
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			if _, err := c.PostBatch([]client.BatchPost{{Object: i, Value: 1, Positive: false}}, true); err != nil {
				t.Error(err)
			}
		}(i, c)
	}
	wg.Wait()
	// Two identical window reads, each served by the board (the server
	// keeps no read cache).
	cs[0].CountVotesInWindow(0, 1)
	cs[0].CountVotesInWindow(0, 1)
	for _, c := range cs {
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()

	// Family grouping: HELP and TYPE once, immediately above the samples.
	wantBlock := "# HELP server_rounds_total rounds committed\n" +
		"# TYPE server_rounds_total counter\n" +
		"server_rounds_total 1\n"
	if !strings.Contains(body, wantBlock) {
		t.Errorf("missing exposition block:\n%s\n--- in body ---\n%s", wantBlock, body)
	}

	// Every deterministic sample of the workload, as exact exposition lines.
	// (Latency histograms and byte counters vary run to run and are checked
	// structurally below.)
	for _, line := range []string{
		`server_connections_total 2`,
		`server_sessions_opened_total 2`,
		`server_sessions_resumed_total 0`,
		`server_sessions_expired_total 0`,
		`server_dedup_replays_total 0`,
		`server_force_done_total 0`,
		`server_requests_total{type="hello"} 2`,
		`server_requests_total{type="probe-batch"} 2`,
		`server_requests_total{type="post-batch"} 2`,
		`server_requests_total{type="window"} 2`,
		`server_requests_total{type="done"} 2`,
		`server_requests_total{type="vote-batch"} 0`,
		`server_barrier_wait_seconds_count 2`,
		`server_request_seconds_count 10`,
		`billboard_posts_total 2`,
		`billboard_window_queries_total 2`,
		`billboard_index_rebuilds_total 0`,
		`client_dials_total 2`,
		`client_reconnects_total 0`,
		`client_retries_total 0`,
		`client_frames_sent_total 10`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing exposition line %q", line)
		}
	}

	// Structural checks on the nondeterministic families: histograms expose
	// cumulative buckets ending at +Inf, and the byte counters moved.
	if !strings.Contains(body, `server_request_seconds_bucket{le="+Inf"} 10`) {
		t.Errorf("missing +Inf bucket:\n%s", body)
	}
	snap := reg.Snapshot()
	if snap["server_read_bytes_total"] <= 0 || snap["server_written_bytes_total"] <= 0 {
		t.Errorf("byte counters did not move: read=%v written=%v",
			snap["server_read_bytes_total"], snap["server_written_bytes_total"])
	}
	if snap["client_bytes_sent_total"] <= 0 {
		t.Errorf("client bytes counter did not move: %v", snap["client_bytes_sent_total"])
	}
	// Conservation: the server read every byte the clients sent.
	if snap["server_read_bytes_total"] != snap["client_bytes_sent_total"] {
		t.Errorf("bytes diverge: server read %v, clients sent %v",
			snap["server_read_bytes_total"], snap["client_bytes_sent_total"])
	}
}

// TestMetricsConcurrentClients hammers an instrumented server from many
// concurrent connections while a scraper renders the registry in a loop —
// the race test for the whole recording path (counters, histograms, the
// counting conn, and exposition). Totals must balance exactly afterward.
func TestMetricsConcurrentClients(t *testing.T) {
	const players = 8
	const rounds = 5
	addr, srv, reg := startMetricsServer(t, players)

	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scrapes must never block or corrupt recording
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			reg.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.DialOptions(addr, p, "tok", client.Options{Metrics: reg})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				if _, err := c.Probe((p + r) % 32); err != nil {
					t.Error(err)
					return
				}
				c.CountVotesInWindow(0, r)
				if _, err := c.PostBatch([]client.BatchPost{{Object: p, Value: float64(r), Positive: false}}, true); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Done(); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	close(done)
	scraper.Wait()

	snap := reg.Snapshot()
	var requestTotal float64
	for name, v := range snap {
		if strings.HasPrefix(name, "server_requests_total{") {
			requestTotal += v
		}
	}
	if got := float64(srv.RequestsServed()); requestTotal != got {
		t.Errorf("request counters sum to %v, server decoded %v frames", requestTotal, got)
	}
	for name, want := range map[string]float64{
		"server_rounds_total":                       rounds,
		"server_sessions_opened_total":              players,
		"billboard_posts_total":                     players * rounds,
		"client_dials_total":                        players,
		`server_requests_total{type="probe-batch"}`: players * rounds,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}
