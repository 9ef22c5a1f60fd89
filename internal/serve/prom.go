package serve

import (
	"io"
	"sort"

	"topoopt/internal/telemetry"
)

// WriteMetricsText renders a metrics snapshot as Prometheus text
// exposition format 0.0.4 — the GET /metrics body. It is a pure
// function of the snapshot and byte-deterministic: endpoint labels
// iterate in sorted order, stage labels in enum order, so two renders
// of the same snapshot are identical.
func WriteMetricsText(w io.Writer, snap MetricsSnapshot) error {
	p := telemetry.NewPromWriter(w)

	p.Family("topoopt_requests_total", "HTTP requests received, by endpoint.", "counter")
	endpoints := make([]string, 0, len(snap.Requests))
	for k := range snap.Requests {
		endpoints = append(endpoints, k)
	}
	sort.Strings(endpoints)
	for _, e := range endpoints {
		p.Int("topoopt_requests_total", snap.Requests[e], "endpoint", e)
	}

	counter := func(name, help string, v int64) {
		p.Family(name, help, "counter")
		p.Int(name, v)
	}
	gauge := func(name, help string, v float64) {
		p.Family(name, help, "gauge")
		p.Sample(name, v)
	}

	counter("topoopt_cache_hits_total", "Plan-cache hits.", snap.CacheHits)
	counter("topoopt_cache_misses_total", "Plan-cache misses.", snap.CacheMisses)
	counter("topoopt_coalesced_total", "Requests coalesced onto an already in-flight computation.", snap.Coalesced)
	counter("topoopt_optimizations_total", "Optimizations completed.", snap.Optimizations)
	counter("topoopt_queue_full_total", "Requests rejected because the work queue was full.", snap.QueueFull)
	counter("topoopt_shed_total", "Requests shed by the admission controller.", snap.Shed)
	counter("topoopt_store_errors_total", "Durable-store append or replay failures.", snap.StoreErrors)
	counter("topoopt_mcmc_proposals_total", "MCMC proposals consumed across all searches.", snap.MCMCProposals)
	counter("topoopt_warm_start_total", "Searches seeded from the plan-similarity index.", snap.WarmStarts)
	counter("topoopt_warm_start_improved_total", "Warm-started searches whose seed strictly beat the canonical start states.", snap.WarmStartImproved)

	gauge("topoopt_cache_entries", "Plan-cache entries resident.", float64(snap.CacheEntries))
	gauge("topoopt_in_flight", "Computations currently in flight.", float64(snap.InFlight))
	gauge("topoopt_queue_depth", "Tasks queued but not yet started.", float64(snap.QueueDepth))
	gauge("topoopt_queue_capacity", "Work-queue capacity.", float64(snap.QueueCapacity))
	gauge("topoopt_jobs_tracked", "Async jobs tracked.", float64(snap.JobsTracked))
	gauge("topoopt_warmed_entries", "Cache entries replayed from the durable store on boot.", float64(snap.WarmedEntries))
	gauge("topoopt_sim_index_entries", "Plans indexed for similarity warm starts.", float64(snap.SimIndexEntries))
	draining := 0.0
	if snap.Draining {
		draining = 1
	}
	gauge("topoopt_draining", "1 while the service is draining, 0 otherwise.", draining)
	gauge("topoopt_mean_service_seconds", "Mean wall time of recent completed searches (the admission controller's estimate).", snap.MeanServiceSeconds)

	// Sharded-cluster forwarding counters, present only when the daemon
	// runs with -peers. Peer labels iterate in sorted order, keeping the
	// render byte-deterministic.
	if len(snap.Forwarded) > 0 {
		peers := make([]string, 0, len(snap.Forwarded))
		for pr := range snap.Forwarded {
			peers = append(peers, pr)
		}
		sort.Strings(peers)
		p.Family("topoopt_forwarded_total", "Requests proxied to their owning peer, by peer.", "counter")
		for _, pr := range peers {
			p.Int("topoopt_forwarded_total", snap.Forwarded[pr], "peer", pr)
		}
		p.Family("topoopt_forward_fallback_total", "Proxy attempts that fell back to local compute, by peer.", "counter")
		for _, pr := range peers {
			p.Int("topoopt_forward_fallback_total", snap.ForwardFallbacks[pr], "peer", pr)
		}
		counter("topoopt_forwarded_served_total", "Requests served here that arrived via a peer's forward.", snap.ForwardedServed)
	}

	p.Family("topoopt_request_latency_seconds", "End-to-end plan latency, handler entry to last byte written: all-time count/sum, quantiles over the recent window.", "summary")
	p.Summary("topoopt_request_latency_seconds", telemetry.StageSummary{
		Count:      snap.Latency.Count,
		SumSeconds: snap.Latency.SumSeconds,
		P50Seconds: snap.Latency.P50Seconds,
		P90Seconds: snap.Latency.P90Seconds,
		P99Seconds: snap.Latency.P99Seconds,
		MaxSeconds: snap.Latency.MaxSeconds,
	})

	p.Family("topoopt_stage_latency_seconds", "Per-stage request latency: all-time count/sum, quantiles over the recent window.", "summary")
	for _, name := range telemetry.StageNames(snap.Stages) {
		p.Summary("topoopt_stage_latency_seconds", snap.Stages[name], "stage", name)
	}

	return p.Err()
}
