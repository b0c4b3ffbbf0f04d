package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/service"
)

// TestRequestIDPropagation proves one id follows a request through the
// cluster: the router assigns (or trusts) an X-Request-ID, forwards it
// to the replica it proxies to, and the replica's structured log lines
// and response carry that same id.
func TestRequestIDPropagation(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishPair(t, st, "soc", testGraph(t, 1))

	// Replica with a captive logger so we can read its request lines.
	var replicaLog bytes.Buffer
	s := service.New(service.Config{
		ColdStart: true,
		Logger:    obs.NewLogger(&replicaLog, "imserver", slog.LevelDebug),
	})
	t.Cleanup(s.Close)
	w := NewWatcher(st, s, 0)
	if _, err := w.SyncOnce(context.Background()); err != nil {
		t.Fatalf("warm-load: %v", err)
	}
	replica := httptest.NewServer(s.Handler())
	t.Cleanup(replica.Close)

	rt, err := NewRouter(RouterConfig{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollOnce(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Caller-supplied id: trusted by the router, proxied to the replica.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/select",
		strings.NewReader(`{"graph":"soc","algorithm":"imm","k":2,"options":{"epsilon":0.3,"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "rid-prop-test")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatalf("routed select: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed select: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "rid-prop-test" {
		t.Errorf("router did not echo the inbound id: got %q", got)
	}
	if !strings.Contains(replicaLog.String(), "request_id=rid-prop-test") {
		t.Errorf("replica log does not carry the router's request id:\n%s", replicaLog.String())
	}

	// No caller id: the router mints one and the replica still logs it.
	replicaLog.Reset()
	resp, err = front.Client().Post(front.URL+"/v1/select", "application/json",
		strings.NewReader(`{"graph":"soc","algorithm":"imm","k":2,"options":{"epsilon":0.3,"seed":7}}`))
	if err != nil {
		t.Fatalf("routed select: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(obs.RequestIDHeader)
	if minted == "" {
		t.Fatal("router did not mint a request id")
	}
	if !strings.Contains(replicaLog.String(), "request_id="+minted) {
		t.Errorf("replica log does not carry minted id %q:\n%s", minted, replicaLog.String())
	}
}

// TestRouterMetricsScrape drives a routed request, scrapes the router's
// /metrics and checks the routing families are present with the HTTP
// request counted.
func TestRouterMetricsScrape(t *testing.T) {
	tc := newTestCluster(t)

	resp, err := http.Post(tc.front.URL+"/v1/select", "application/json",
		strings.NewReader(`{"graph":"soc","algorithm":"imm","k":2,"options":{"epsilon":0.3,"seed":7}}`))
	if err != nil {
		t.Fatalf("routed select: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed select: status %d", resp.StatusCode)
	}

	scrape, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(scrape.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, family := range []string{
		"# TYPE im_router_proxy_duration_seconds histogram",
		"# TYPE im_router_hedges_total counter",
		"# TYPE im_router_failovers_total counter",
		"# TYPE im_router_shed_stops_total counter",
		"# TYPE im_router_stale_routes_total counter",
		"# TYPE im_router_replicas_healthy gauge",
		"# TYPE http_requests_total counter",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("scrape missing %q", family)
		}
	}
	if !strings.Contains(out, `http_requests_total{route="/v1/select",method="POST",code="200"} 1`) {
		t.Errorf("routed select not counted:\n%s", out)
	}
	if !strings.Contains(out, `im_router_proxy_duration_seconds_count{replica=`) {
		t.Errorf("proxy latency not observed per replica:\n%s", out)
	}
}
