package cluster

import (
	"net/http"

	"github.com/holisticim/holisticim/internal/obs"
)

// routerMetrics are the router's own families — the routing decisions a
// replica can't see: per-replica proxy latency, hedged launches,
// failovers, shed stops and degraded (stale/non-owner) placements.
type routerMetrics struct {
	proxyDur    *obs.HistogramVec // im_router_proxy_duration_seconds{replica}
	hedges      *obs.Counter
	failovers   *obs.Counter
	shedStops   *obs.Counter
	staleRoutes *obs.Counter
}

func (rt *Router) initObservability() {
	m := rt.metrics
	rt.rm = routerMetrics{
		proxyDur: m.HistogramVec("im_router_proxy_duration_seconds",
			"Upstream request latency in seconds, by replica.",
			nil, "replica"),
		hedges: m.Counter("im_router_hedges_total",
			"Hedged launches: extra candidates started because the leader ran past the hedge delay."),
		failovers: m.Counter("im_router_failovers_total",
			"Failover launches: extra candidates started after a candidate failed or shed."),
		shedStops: m.Counter("im_router_shed_stops_total",
			"Failovers suppressed by the 429 shed budget: the overload was surfaced to the client with the largest Retry-After instead of recruiting more replicas."),
		staleRoutes: m.Counter("im_router_stale_routes_total",
			"Requests routed with a degraded-placement note (stale or non-owner replica)."),
	}
	m.GaugeFunc("im_router_replicas_healthy", "Replicas currently passing health polls.",
		func() float64 { return float64(len(rt.mem.healthy())) })
	m.GaugeFunc("im_router_replicas", "Replicas configured on the ring.",
		func() float64 { return float64(len(rt.mem.replicas)) })
}

// handleMetrics serves the router's GET /metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.metrics.Handler().ServeHTTP(w, r)
}
