package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"topoopt"
	"topoopt/internal/telemetry"
)

// maxRequestBytes bounds request bodies; plan requests are tiny.
const maxRequestBytes = 1 << 20

// ErrorResponse is the unified error envelope: every non-2xx response
// from every endpoint is {"error": ErrorResponse}. Code is the
// machine-readable taxonomy —
//
//	bad_request        malformed body/query or invalid field values
//	bad_deadline       malformed X-Deadline-Ms header
//	unknown_arch       architecture name not in the backend registry
//	not_found          no such job
//	queue_full         work queue at capacity
//	overloaded         admission controller shed the request
//	draining           graceful shutdown in progress, not admitting
//	shutting_down      service closed
//	deadline_exceeded  the request's deadline expired while waiting
//	internal           the computation itself failed
//
// — and Detail carries machine-readable context within a code (the
// offending field group for bad_request, queue depth for backpressure).
// RetryAfterSeconds, when nonzero, mirrors the Retry-After header:
// backpressure responses derive it from queue depth × observed service
// time, so well-behaved clients back off proportionally to the actual
// overload.
type ErrorResponse struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
	Detail            string `json:"detail,omitempty"`
}

// apiError is an ErrorResponse plus the HTTP status it rides on.
type apiError struct {
	Status int `json:"-"`
	ErrorResponse
}

// badRequest is a 400 bad_request with detail naming the offending field
// group (body, model, options, spec, query, replicas).
func badRequest(detail string, err error) *apiError {
	return &apiError{Status: http.StatusBadRequest,
		ErrorResponse: ErrorResponse{Code: "bad_request", Message: err.Error(), Detail: detail}}
}

// unknownArch is a 400 unknown_arch: the architecture name is not in the
// backend registry (the message names the registered menu).
func unknownArch(err error) *apiError {
	return &apiError{Status: http.StatusBadRequest,
		ErrorResponse: ErrorResponse{Code: "unknown_arch", Message: err.Error()}}
}

func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(map[string]ErrorResponse{"error": e.ErrorResponse})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// resultTail closes every writeResult body.
var resultTail = []byte("}\n")

// writeResult is the one response path of the plan, compare and sweep
// endpoints, on hits and misses alike: a 200 carrying
// {"fingerprint":fp,"cached":cached,"<field>":<result bytes>}\n, byte for
// byte what json.Encoder writes for PlanResponse, CompareResponse and
// SweepResponse. The result's canonical bytes go to the socket as they
// are, so a hit encodes nothing; a result computed without a store is
// encoded here, once for all its waiters. The write is the request's
// encode stage. It reports whether the 200 was written.
func (s *Service) writeResult(w http.ResponseWriter, tr *telemetry.Trace, fp string, cached bool, field string, res *result) bool {
	tr.Start(telemetry.StageEncode)
	body, err := res.bytes()
	if err != nil {
		aerr := s.serviceError(err)
		tr.Finish(fp, false, aerr.Status)
		writeError(w, aerr)
		return false
	}
	// Fingerprints are hex digests, so none needs escaping.
	head := make([]byte, 0, len(`{"fingerprint":"","cached":false,"":`)+len(fp)+len(field))
	head = append(head, `{"fingerprint":"`...)
	head = append(head, fp...)
	head = append(head, `","cached":`...)
	head = strconv.AppendBool(head, cached)
	head = append(head, `,"`...)
	head = append(head, field...)
	head = append(head, `":`...)
	// The header renders before the body is written (headers must precede
	// WriteHeader), so its encode figure is ~0; the full write time still
	// lands in the published /debug/requests record and stage quantiles.
	h := w.Header()
	h.Set("X-Trace", string(tr.AppendHeader(nil)))
	h.Set("Content-Type", "application/json")
	// The length is known up front, so the body goes out unchunked.
	h.Set("Content-Length", strconv.Itoa(len(head)+len(body)+len(resultTail)))
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	w.Write(body)
	w.Write(resultTail)
	tr.Finish(fp, cached, http.StatusOK)
	return true
}

// retrySeconds converts a wait estimate to a Retry-After value: at
// least 1 second, rounded up, so a client that honors the header never
// hammers a saturated server sub-second.
func retrySeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// serviceError maps service-layer errors onto the unified envelope.
// Backpressure responses carry the queue depth (in Detail) and a
// Retry-After hint derived from queue depth × observed service time, so
// well-behaved clients back off proportionally to the actual overload.
func (s *Service) serviceError(err error) *apiError {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		return &apiError{Status: http.StatusTooManyRequests, ErrorResponse: ErrorResponse{
			Code: "overloaded", Message: err.Error(),
			Detail:            fmt.Sprintf("queue_depth=%d", oe.QueueDepth),
			RetryAfterSeconds: retrySeconds(oe.EstimatedWait),
		}}
	case errors.Is(err, ErrQueueFull):
		return &apiError{Status: http.StatusServiceUnavailable, ErrorResponse: ErrorResponse{
			Code: "queue_full", Message: err.Error(),
			Detail:            fmt.Sprintf("queue_depth=%d", len(s.queue)),
			RetryAfterSeconds: retrySeconds(s.estimatedWait()),
		}}
	case errors.Is(err, ErrDraining):
		return &apiError{Status: http.StatusServiceUnavailable, ErrorResponse: ErrorResponse{
			Code: "draining", Message: err.Error(), RetryAfterSeconds: 1,
		}}
	case errors.Is(err, ErrClosed):
		return &apiError{Status: http.StatusServiceUnavailable,
			ErrorResponse: ErrorResponse{Code: "shutting_down", Message: err.Error()}}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout,
			ErrorResponse: ErrorResponse{Code: "deadline_exceeded", Message: err.Error()}}
	default:
		return &apiError{Status: http.StatusInternalServerError,
			ErrorResponse: ErrorResponse{Code: "internal", Message: err.Error()}}
	}
}

// requestContext derives the per-request context: an explicit
// X-Deadline-Ms header wins, then the configured default deadline, then
// the bare request context. The returned cancel must always be called.
func (s *Service) requestContext(r *http.Request) (context.Context, context.CancelFunc, *apiError) {
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			return nil, nil, &apiError{Status: http.StatusBadRequest, ErrorResponse: ErrorResponse{
				Code:    "bad_deadline",
				Message: fmt.Sprintf("X-Deadline-Ms must be a positive integer, got %q", h),
			}}
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		return ctx, cancel, nil
	}
	if d := s.cfg.DefaultDeadline; d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// decodeJSON strictly decodes a bounded request body into dst.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("body", err)
	}
	return nil
}

// readBody reads the bounded request body whole. The forwardable
// endpoints (plan, compare) buffer the raw bytes so a non-owner daemon
// can re-send them verbatim to the fingerprint's owner.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, badRequest("body", err)
	}
	return body, nil
}

// decodeJSONBytes strictly decodes an already-buffered body into dst.
func decodeJSONBytes(body []byte, dst any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("body", err)
	}
	return nil
}

// validatePlanFields resolves the spec and validates the options — the
// single validation pipeline every planning endpoint shares. Failures
// are bad_request with detail naming the field group: "model"
// (unresolvable ModelSpec) or "options" (Options.Validate failure). The
// resolved model is returned so downstream code never re-resolves.
func validatePlanFields(spec topoopt.ModelSpec, o topoopt.Options) (*topoopt.Model, *apiError) {
	m, err := spec.Resolve()
	if err != nil {
		return nil, badRequest("model", err)
	}
	if err := o.Validate(); err != nil {
		return nil, badRequest("options", err)
	}
	return m, nil
}

// decodePlanRequest decodes and validates the shared request body.
func decodePlanRequest(w http.ResponseWriter, r *http.Request, dst *PlanRequest) (*topoopt.Model, *apiError) {
	if aerr := decodeJSON(w, r, dst); aerr != nil {
		return nil, aerr
	}
	return validatePlanFields(dst.Model, dst.Options)
}

// decodePlanBytes is decodePlanRequest over a pre-buffered body.
func decodePlanBytes(body []byte, dst *PlanRequest) (*topoopt.Model, *apiError) {
	if aerr := decodeJSONBytes(body, dst); aerr != nil {
		return nil, aerr
	}
	return validatePlanFields(dst.Model, dst.Options)
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/plan       — synchronous optimization (cached, coalesced)
//	POST   /v1/compare    — architecture comparison
//	GET    /v1/cost       — §5.2 cost model lookup
//	POST   /v1/fleet      — submit an async fleet simulation
//	POST   /v1/sweep      — K-replica Monte Carlo fleet sweep (sync or async)
//	POST   /v1/jobs       — submit an async planning job
//	GET    /v1/jobs       — list jobs, newest first (?status=, ?limit=)
//	GET    /v1/jobs/{id}  — poll a job (plan, fleet or sweep)
//	DELETE /v1/jobs/{id}  — cancel a job
//	GET    /v1/cluster    — shard membership, ring shares, peer health
//	GET    /v1/metrics    — counters, gauges, latency quantiles (JSON)
//	GET    /metrics       — the same snapshot, Prometheus text exposition
//	GET    /debug/requests — ring of recent request stage breakdowns
//	GET    /healthz       — liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("GET /v1/cost", s.handleCost)
	mux.HandleFunc("POST /v1/fleet", s.handleSubmitFleet)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// PlanResponse is the POST /v1/plan response body, as writeResult writes
// it.
type PlanResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Cached      bool          `json:"cached"`
	Plan        *topoopt.Plan `json:"plan"`
}

// handlePlan serves POST /v1/plan. Every 200 it writes itself is timed
// into the request-latency window, from handler entry to the last byte
// written; answers a peer computed are timed by that peer.
func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.incRequest("plan")
	s.noteForwardedArrival(r)
	tr := s.tel.Begin("plan")
	tr.Start(telemetry.StageDecode)
	body, aerr := readBody(w, r)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	var req PlanRequest
	m, aerr := decodePlanBytes(body, &req)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	ctx, cancel, aerr := s.requestContext(r)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	defer cancel()
	fp := req.Fingerprint()
	tr.End()
	if handled, status := s.forward(ctx, w, r, body, fp); handled {
		tr.Finish(fp, false, status)
		return
	}
	res, fp, cached, err := s.plan(ctx, req, fp, resolved(m), nil, tr)
	if err != nil {
		aerr := s.serviceError(err)
		tr.Finish(fp, false, aerr.Status)
		writeError(w, aerr)
		return
	}
	if s.writeResult(w, tr, fp, cached, "plan", res) {
		s.met.observeLatency(time.Since(start).Seconds())
	}
}

// CompareRequest is the POST /v1/compare request body. Archs defaults to
// the full §5.1 comparison set.
type CompareRequest struct {
	Model   topoopt.ModelSpec `json:"model"`
	Options topoopt.Options   `json:"options"`
	Archs   []string          `json:"archs,omitempty"`
}

// CompareResponse is the POST /v1/compare response body, as writeResult
// writes it.
type CompareResponse struct {
	Fingerprint string                  `json:"fingerprint"`
	Cached      bool                    `json:"cached"`
	Results     []topoopt.CompareResult `json:"results"`
}

func (s *Service) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("compare")
	s.noteForwardedArrival(r)
	tr := s.tel.Begin("compare")
	tr.Start(telemetry.StageDecode)
	body, aerr := readBody(w, r)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	var req CompareRequest
	if aerr := decodeJSONBytes(body, &req); aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	m, aerr := validatePlanFields(req.Model, req.Options)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	// Validate every name against the backend registry up front: the 400
	// carries the registered menu, and nothing unvalidated reaches the
	// worker pool (where it would surface as an opaque 500).
	archs := make([]topoopt.Architecture, 0, len(req.Archs))
	for _, a := range req.Archs {
		pa, err := topoopt.ParseArchitecture(a)
		if err != nil {
			tr.Finish("", false, http.StatusBadRequest)
			writeError(w, unknownArch(err))
			return
		}
		archs = append(archs, pa)
	}
	ctx, cancel, aerr := s.requestContext(r)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	defer cancel()
	fp := CompareFingerprint(req.Model, req.Options, archs)
	tr.End()
	if handled, status := s.forward(ctx, w, r, body, fp); handled {
		tr.Finish(fp, false, status)
		return
	}
	// Compare latencies are not observed: a multi-architecture sweep is
	// seconds-scale and would swamp the serving-path quantiles the
	// latency window exists to track.
	res, fp, cached, err := s.compare(ctx, fp, m, req.Options, archs, tr)
	if err != nil {
		aerr := s.serviceError(err)
		tr.Finish(fp, false, aerr.Status)
		writeError(w, aerr)
		return
	}
	s.writeResult(w, tr, fp, cached, "results", res)
}

// CostResponse is the GET /v1/cost response body.
type CostResponse struct {
	Arch          string  `json:"arch"`
	Servers       int     `json:"servers"`
	Degree        int     `json:"degree"`
	LinkBandwidth float64 `json:"link_bandwidth"`
	CostUSD       float64 `json:"cost_usd"`
}

func (s *Service) handleCost(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("cost")
	q := r.URL.Query()
	arch := q.Get("arch")
	servers, err1 := strconv.Atoi(q.Get("servers"))
	degree, err2 := strconv.Atoi(q.Get("degree"))
	gbps, err3 := strconv.ParseFloat(q.Get("bandwidth_gbps"), 64)
	if arch == "" || err1 != nil || err2 != nil || err3 != nil {
		writeError(w, badRequest("query",
			errors.New("required query parameters: arch, servers, degree, bandwidth_gbps")))
		return
	}
	bw := gbps * 1e9
	// Same bounds as Options.Validate, so /v1/cost rejects what /v1/plan
	// would instead of pricing a nonsensical deployment.
	if err := (topoopt.Options{Servers: servers, Degree: degree, LinkBandwidth: bw}).Validate(); err != nil {
		writeError(w, badRequest("query", err))
		return
	}
	// Registry validation first: an unknown name is a client error that
	// names the registered menu, never a 500.
	pa, err := topoopt.ParseArchitecture(arch)
	if err != nil {
		writeError(w, unknownArch(err))
		return
	}
	c, err := topoopt.Cost(pa, servers, degree, bw)
	if err != nil {
		writeError(w, unknownArch(err))
		return
	}
	writeJSON(w, http.StatusOK, CostResponse{
		Arch: arch, Servers: servers, Degree: degree, LinkBandwidth: bw, CostUSD: c,
	})
}

// handleSubmitFleet accepts a fleet simulation and returns the async job
// tracking it (202). Fleet runs are seconds-to-minutes scale, so the
// endpoint is async-only: poll GET /v1/jobs/{id} for the FleetResult,
// DELETE to cancel. A repeated submission of the same canonical spec
// reuses the fingerprinted cache entry and returns a job that is already
// done with the identical result.
func (s *Service) handleSubmitFleet(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("fleet")
	var req FleetRequest
	if aerr := decodeJSON(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	// Validate up front: the 400 names the registered menu (archs,
	// policies, provisioning modes) instead of surfacing a late 500.
	if err := req.Spec.Validate(); err != nil {
		writeError(w, badRequest("spec", err))
		return
	}
	j, err := s.SubmitFleet(req.Spec)
	if err != nil {
		writeError(w, s.serviceError(err))
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// SweepResponse is the synchronous POST /v1/sweep response body, as
// writeResult writes it.
type SweepResponse struct {
	Fingerprint string                    `json:"fingerprint"`
	Cached      bool                      `json:"cached"`
	Sweep       *topoopt.FleetSweepResult `json:"sweep"`
}

// handleSweep runs a K-replica Monte Carlo fleet sweep. Synchronous by
// default — the merged distributions come back in the response with the
// standard X-Trace breakdown (replica progress included) — or async with
// "async": true, returning 202 + a kind="sweep" job to poll.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("sweep")
	tr := s.tel.Begin("sweep")
	tr.Start(telemetry.StageDecode)
	var req SweepRequest
	if aerr := decodeJSON(w, r, &req); aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		aerr := badRequest("spec", err)
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	if req.Replicas < 1 || req.Replicas > topoopt.MaxFleetSweepReplicas {
		aerr := badRequest("replicas",
			fmt.Errorf("replicas must be in [1, %d], got %d", topoopt.MaxFleetSweepReplicas, req.Replicas))
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	if req.Async {
		j, err := s.SubmitSweep(req.Spec, req.Replicas)
		if err != nil {
			aerr := s.serviceError(err)
			tr.Finish("", false, aerr.Status)
			writeError(w, aerr)
			return
		}
		tr.Finish(j.Fingerprint, false, http.StatusAccepted)
		writeJSON(w, http.StatusAccepted, j)
		return
	}
	ctx, cancel, aerr := s.requestContext(r)
	if aerr != nil {
		tr.Finish("", false, aerr.Status)
		writeError(w, aerr)
		return
	}
	defer cancel()
	tr.End()
	// Sweep latencies are not observed, like compares: a K-replica fan-out
	// is seconds-to-minutes scale and would swamp the serving-path
	// quantiles.
	res, fp, cached, err := s.sweep(ctx, req.Spec, req.Replicas, tr)
	if err != nil {
		aerr := s.serviceError(err)
		tr.Finish(fp, false, aerr.Status)
		writeError(w, aerr)
		return
	}
	s.writeResult(w, tr, fp, cached, "sweep", res)
}

// JobList is the GET /v1/jobs response body: tracked jobs newest-first,
// result payloads stripped (GET the individual job for its result).
type JobList struct {
	Jobs []Job `json:"jobs"`
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("jobs_list")
	q := r.URL.Query()
	limit := 0
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 {
			writeError(w, badRequest("query", fmt.Errorf("limit must be a positive integer, got %q", l)))
			return
		}
		limit = n
	}
	jobs, err := s.ListJobs(q.Get("status"), limit)
	if err != nil {
		writeError(w, badRequest("query", err))
		return
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: jobs})
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("jobs_submit")
	var req PlanRequest
	m, aerr := decodePlanRequest(w, r, &req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	j, err := s.submitJob(m, req)
	if err != nil {
		writeError(w, s.serviceError(err))
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("jobs_get")
	j, ok := s.GetJob(r.PathValue("id"))
	if !ok {
		writeError(w, jobNotFound(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func jobNotFound(id string) *apiError {
	return &apiError{Status: http.StatusNotFound, ErrorResponse: ErrorResponse{
		Code: "not_found", Message: fmt.Sprintf("no job %q", id),
	}}
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	s.met.incRequest("jobs_cancel")
	j, ok := s.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, jobNotFound(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handlePromMetrics is the Prometheus scrape endpoint: the same snapshot
// as /v1/metrics, rendered as text exposition format 0.0.4.
func (s *Service) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	WriteMetricsText(w, s.Metrics())
}

// DebugRequests is the GET /debug/requests response body: the last
// telemetry.DefaultRingSize completed traced requests, newest first,
// each with its per-stage breakdown.
type DebugRequests struct {
	Requests []telemetry.Record `json:"requests"`
}

func (s *Service) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DebugRequests{Requests: s.tel.Requests()})
}
