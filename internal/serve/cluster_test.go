package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/shard"
	"topoopt/internal/wal"
)

// clusterNode is one in-process cluster member: a Service behind a real
// httptest listener.
type clusterNode struct {
	svc *Service
	ts  *httptest.Server
	url string
}

// startTestCluster brings up n Services joined as one sharded cluster.
// The listeners are created first (their URLs are the member names),
// with a placeholder handler that answers /healthz while the services
// bootstrap; then each Service is built by mkCfg, clustered over the
// full URL list, and swapped in.
func startTestCluster(t *testing.T, n int, mkCfg func(i int, urls []string) Config) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	handlers := make([]atomic.Pointer[http.Handler], n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := handlers[i].Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			// Bootstrapping: answer health probes, defer everything else.
			if r.URL.Path == "/healthz" {
				writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		nodes[i] = &clusterNode{ts: ts, url: ts.URL}
		urls[i] = ts.URL
	}
	for i := 0; i < n; i++ {
		svc := New(mkCfg(i, urls))
		// Probe once at startup (peers come up healthy) and then never
		// again: the tests below pin exactly when a failed forward flips a
		// peer to down, and a periodic probe racing a ts.Close() would mark
		// the peer down before the request under test attempts its hop.
		if err := svc.EnableCluster(ClusterConfig{
			Self: urls[i], Peers: urls, ProbeInterval: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
		h := svc.Handler()
		handlers[i].Store(&h)
		nodes[i].svc = svc
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.svc.Close()
			nd.ts.Close()
		}
	})
	// EnableCluster's bootstrap probeAll runs asynchronously. Wait until
	// every node has successfully probed every peer before handing the
	// cluster to the test: a test that tears a listener down right after
	// startup must not race the bootstrap probe into marking that peer
	// down before the request under test attempts its hop.
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		c := nd.svc.cluster.Load()
		for {
			c.mu.Lock()
			ready := true
			for _, st := range c.peers {
				if !st.healthy || st.lastProbe.IsZero() {
					ready = false
					break
				}
			}
			c.mu.Unlock()
			if ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("cluster bootstrap probes did not settle")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nodes
}

// requestOwnedBy scans seeds until it finds a plan request whose
// fingerprint the ring assigns to the target member. The test-side ring
// is built exactly like EnableCluster builds its own (default vnodes),
// so ownership agrees by construction.
func requestOwnedBy(t *testing.T, urls []string, target string) PlanRequest {
	t.Helper()
	ring, err := shard.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 10000; seed++ {
		req := testRequest(seed)
		if ring.Owner(req.Fingerprint()) == target {
			return req
		}
	}
	t.Fatal("no seed hashed to the target member (astronomically unlikely)")
	return PlanRequest{}
}

// TestClusterByteIdenticalAcrossEntryPeers pins the core sharding
// contract: the same request POSTed to every member of a 3-daemon
// cluster returns a byte-identical plan regardless of entry peer —
// non-owners proxy to the owner, whose deterministic result (and cache)
// answers all three.
func TestClusterByteIdenticalAcrossEntryPeers(t *testing.T) {
	nodes := startTestCluster(t, 3, func(i int, urls []string) Config {
		return Config{Workers: 2, QueueLen: 8}
	})
	req := testRequest(1)
	fp := req.Fingerprint()

	var plans [][]byte
	owners := map[string]int{}
	for _, nd := range nodes {
		resp, body, pr := postPlan(t, nd.url, req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entry %s: status %d: %s", nd.url, resp.StatusCode, body)
		}
		if pr.Fingerprint != fp {
			t.Fatalf("entry %s: fingerprint %s, want %s", nd.url, pr.Fingerprint, fp)
		}
		if string(pr.Plan) == "null" || len(pr.Plan) == 0 {
			t.Fatalf("entry %s: no plan", nd.url)
		}
		plans = append(plans, pr.Plan)
		owners[resp.Header.Get(OwnerHeader)]++
	}
	if !bytes.Equal(plans[0], plans[1]) || !bytes.Equal(plans[0], plans[2]) {
		t.Fatal("plans differ by entry peer")
	}
	// Exactly one member owns fp: the other two entries carried its
	// OwnerHeader, the owner itself served locally (no header).
	ring, _ := shard.New([]string{nodes[0].url, nodes[1].url, nodes[2].url}, 0)
	owner := ring.Owner(fp)
	if owners[owner] != 2 || owners[""] != 1 {
		t.Fatalf("owner attribution %v, want 2 hops to %s + 1 local", owners, owner)
	}
}

// TestClusterSingleHopAndCounters pins the loop guard: a request
// forwarded once is served where it lands, never re-forwarded, and the
// per-peer counters attribute the hop correctly on both sides.
func TestClusterSingleHopAndCounters(t *testing.T) {
	nodes := startTestCluster(t, 3, func(i int, urls []string) Config {
		return Config{Workers: 1, QueueLen: 8, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return stubPlan(t), nil
		}}
	})
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	req := requestOwnedBy(t, urls, urls[2])

	resp, body, _ := postPlan(t, urls[0], req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(OwnerHeader); got != urls[2] {
		t.Fatalf("owner header %q, want %s", got, urls[2])
	}
	if resp.Header.Get("X-Trace") == "" {
		t.Fatal("owner's X-Trace header not propagated through the hop")
	}
	m0, m1, m2 := nodes[0].svc.Metrics(), nodes[1].svc.Metrics(), nodes[2].svc.Metrics()
	if m0.Forwarded[urls[2]] != 1 || m0.Forwarded[urls[1]] != 0 || m0.ForwardedServed != 0 {
		t.Fatalf("edge counters wrong: %+v", m0.Forwarded)
	}
	if m2.ForwardedServed != 1 {
		t.Fatalf("owner forwarded_served = %d, want 1", m2.ForwardedServed)
	}
	if m1.ForwardedServed != 0 || m1.Forwarded[urls[0]] != 0 || m1.Forwarded[urls[2]] != 0 {
		t.Fatal("bystander node saw traffic")
	}

	// A request already carrying the loop-guard header must be served
	// where it lands — even on a non-owner — with no second hop.
	req2 := requestOwnedBy(t, urls, urls[0])
	resp, body, _ = postPlan(t, urls[1], req2, map[string]string{ForwardedHeader: "test-origin"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(OwnerHeader); got != "" {
		t.Fatalf("single-hop violated: non-owner re-forwarded (owner header %q)", got)
	}
	m1 = nodes[1].svc.Metrics()
	if m1.Forwarded[urls[0]] != 0 || m1.ForwardedServed != 1 {
		t.Fatalf("loop-guarded request miscounted: forwarded=%v served=%d", m1.Forwarded, m1.ForwardedServed)
	}

	// A forwarded compare keeps its fingerprint in the edge's own
	// /debug/requests record, exactly like a forwarded plan.
	ring, err := shard.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	archs := []topoopt.Architecture{topoopt.ArchIdeal}
	cmp := CompareRequest{Model: topoopt.ModelSpec{Preset: "candle", Section: "6"}, Archs: []string{string(topoopt.ArchIdeal)}}
	var fp string
	for seed := int64(1); fp == ""; seed++ {
		cmp.Options = topoopt.Options{Servers: 4, Degree: 2, LinkBandwidth: 100e9, Rounds: 1, MCMCIters: 5, Seed: seed}
		if f := CompareFingerprint(cmp.Model, cmp.Options, archs); ring.Owner(f) == urls[2] {
			fp = f
		}
	}
	body, _ = json.Marshal(cmp)
	cresp, err := http.Post(urls[0]+"/v1/compare", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || cresp.Header.Get(OwnerHeader) != urls[2] {
		t.Fatalf("compare status %d owner %q, want 200 via %s", cresp.StatusCode, cresp.Header.Get(OwnerHeader), urls[2])
	}
	if rec := nodes[0].svc.tel.Requests()[0]; rec.Endpoint != "compare" || rec.Fingerprint != fp {
		t.Fatalf("edge record %s/%q, want compare/%s", rec.Endpoint, rec.Fingerprint, fp)
	}
}

// TestClusterOwnerDownFallsBackLocal pins the degradation contract: a
// dead owner costs locality, not availability. The first request pays
// one failed connect and computes locally; the peer is then marked down
// so subsequent requests skip the hop entirely.
func TestClusterOwnerDownFallsBackLocal(t *testing.T) {
	nodes := startTestCluster(t, 3, func(i int, urls []string) Config {
		return Config{Workers: 1, QueueLen: 8, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return stubPlan(t), nil
		}}
	})
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[1].ts.Close() // kill the peer's listener; its URL stays a ring member

	req := requestOwnedBy(t, urls, urls[1])
	resp, body, _ := postPlan(t, urls[0], req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(OwnerHeader) != "" {
		t.Fatal("fallback-local response must not claim a remote owner")
	}
	m0 := nodes[0].svc.Metrics()
	if m0.ForwardFallbacks[urls[1]] != 1 || m0.Forwarded[urls[1]] != 0 {
		t.Fatalf("fallback counters: %+v / %+v", m0.ForwardFallbacks, m0.Forwarded)
	}

	// The failed hop marked the peer down: the next request it owns is
	// served locally without even attempting the connect.
	var req2 PlanRequest
	ring, _ := shard.New(urls, 0)
	for seed := int64(1); ; seed++ {
		req2 = testRequest(seed)
		if ring.Owner(req2.Fingerprint()) == urls[1] && req2.Fingerprint() != req.Fingerprint() {
			break
		}
	}
	resp, body, _ = postPlan(t, urls[0], req2, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second fallback status %d: %s", resp.StatusCode, body)
	}
	m0 = nodes[0].svc.Metrics()
	if m0.ForwardFallbacks[urls[1]] != 1 {
		t.Fatalf("marked-down peer was re-attempted: fallbacks %v", m0.ForwardFallbacks)
	}

	// /v1/cluster reflects the downed peer.
	cresp, err := http.Get(urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cr ClusterResponse
	if err := json.NewDecoder(cresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Enabled || len(cr.Members) != 3 {
		t.Fatalf("cluster response %+v", cr)
	}
	shareSum := 0.0
	for _, m := range cr.Members {
		shareSum += m.Share
		if m.Name == urls[1] && m.Healthy {
			t.Fatal("dead peer still reported healthy")
		}
		if m.Name == urls[0] && (!m.Self || !m.Healthy) {
			t.Fatalf("self row wrong: %+v", m)
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("ring shares sum to %g", shareSum)
	}
}

// TestClusterRetryAfterPropagatedThroughHop pins the satellite fix: a
// queue_full rejection forwarded back through a proxy hop carries the
// OWNER's Retry-After (derived from the owner's queue depth and service
// times), not one recomputed from the idle edge's queue.
func TestClusterRetryAfterPropagatedThroughHop(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	nodes := startTestCluster(t, 2, func(i int, urls []string) Config {
		cfg := Config{Workers: 1, QueueLen: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return stubPlan(t), nil
		}}
		if i == 1 {
			// The owner-to-be: one worker, one queue slot, and searches that
			// block until the test releases them.
			cfg.Optimize = func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return stubPlan(t), nil
			}
		}
		return cfg
	})
	urls := []string{nodes[0].url, nodes[1].url}
	owner := nodes[1].svc

	// Saturate the owner directly: one request running, one queued.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		req := requestOwnedBy(t, urls, urls[1])
		if i == 1 {
			for seed := int64(2); ; seed++ {
				r2 := testRequest(seed)
				ring, _ := shard.New(urls, 0)
				if ring.Owner(r2.Fingerprint()) == urls[1] && r2.Fingerprint() != req.Fingerprint() {
					req = r2
					break
				}
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(urls[1]+"/v1/plan", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := owner.Metrics()
		if m.InFlight >= 1 && m.QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never saturated")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Teach the owner's admission estimator a 6s mean service time: its
	// Retry-After for a full queue becomes ceil(1 × 6 / 1) = 6s. The
	// idle edge would say 1s — so a 6 proves the header crossed the hop.
	owner.met.observeService(6.0)

	var req3 PlanRequest
	ring, _ := shard.New(urls, 0)
	for seed := int64(5000); ; seed++ {
		req3 = testRequest(seed)
		if ring.Owner(req3.Fingerprint()) == urls[1] {
			break
		}
	}
	resp, body, _ := postPlan(t, urls[0], req3, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(OwnerHeader); got != urls[1] {
		t.Fatalf("owner header %q, want %s", got, urls[1])
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Fatalf("Retry-After %q, want the owner's 6", got)
	}
	apiErr := decodeAPIError(t, body)
	if apiErr.Code != "queue_full" || apiErr.RetryAfterSeconds != 6 {
		t.Fatalf("envelope %+v, want queue_full with retry_after_seconds 6", apiErr)
	}
	once.Do(func() { close(release) })
	wg.Wait()
}

// TestClusterChaosPeerKilledMidLoad kills one of three daemons midway
// through a load run and asserts every request still gets a valid,
// consistent response (fallback-local on the survivors) and that every
// store replays clean afterwards.
func TestClusterChaosPeerKilledMidLoad(t *testing.T) {
	dirs := make([]string, 3)
	base := t.TempDir()
	nodes := startTestCluster(t, 3, func(i int, urls []string) Config {
		dirs[i] = filepath.Join(base, fmt.Sprintf("store%d", i))
		st, err := OpenStore(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		return Config{Workers: 2, QueueLen: 32, Store: st,
			Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
				time.Sleep(time.Millisecond)
				return stubPlan(t), nil
			}}
	})
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	const total, killAt, distinct = 120, 40, 24
	plansByFp := make(map[string][]byte)
	for i := 0; i < total; i++ {
		if i == killAt {
			nodes[2].ts.Close() // kill one daemon mid-load
		}
		req := testRequest(int64(i % distinct))
		entry := urls[i%2] // load targets the two survivors
		resp, body, pr := postPlan(t, entry, req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d via %s: status %d: %s", i, entry, resp.StatusCode, body)
		}
		if len(pr.Plan) == 0 || string(pr.Plan) == "null" {
			t.Fatalf("request %d: empty plan", i)
		}
		// The same fingerprint must yield byte-identical plans for the
		// whole run, across entry peers and across the kill.
		if prev, ok := plansByFp[pr.Fingerprint]; ok {
			if !bytes.Equal(prev, pr.Plan) {
				t.Fatalf("request %d: plan for %s changed mid-run", i, pr.Fingerprint)
			}
		} else {
			plansByFp[pr.Fingerprint] = pr.Plan
		}
	}
	if len(plansByFp) != distinct {
		t.Fatalf("saw %d distinct fingerprints, want %d", len(plansByFp), distinct)
	}
	m0, m1 := nodes[0].svc.Metrics(), nodes[1].svc.Metrics()
	if m0.ForwardFallbacks[urls[2]]+m1.ForwardFallbacks[urls[2]] == 0 {
		t.Fatal("killing the peer never triggered a fallback — the kill happened too late or ownership never hit it")
	}

	// Every store — the killed daemon's included — must replay clean.
	for _, nd := range nodes {
		nd.svc.Close()
	}
	puts := 0
	for i, dir := range dirs {
		st, err := wal.Open(dir)
		if err != nil {
			t.Fatalf("store %d: reopen: %v", i, err)
		}
		for _, rec := range st.Records() {
			if rec.Op != wal.OpPut {
				continue
			}
			res, _, err := decodeStored(rec.Kind, rec.Payload)
			if err == nil {
				_, err = res.value()
			}
			if err != nil {
				t.Fatalf("store %d: record %s corrupt: %v", i, rec.Fp, err)
			}
			puts++
		}
		st.Close()
	}
	if puts == 0 {
		t.Fatal("no plans were persisted anywhere")
	}
}

// TestClusterDisabledResponse pins the unsharded /v1/cluster shape.
func TestClusterDisabledResponse(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Enabled || cr.Members != nil {
		t.Fatalf("unsharded daemon reported %+v", cr)
	}
}

// TestEnableClusterValidation pins startup-time rejection of broken
// cluster configs.
func TestEnableClusterValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, cfg := range []ClusterConfig{
		{Self: "", Peers: []string{"http://a"}},
		{Self: "http://a", Peers: nil},
		{Self: "http://c", Peers: []string{"http://a", "http://b"}},
	} {
		if err := s.EnableCluster(cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
	// Trailing slashes normalize away.
	if err := s.EnableCluster(ClusterConfig{
		Self:          "http://127.0.0.1:1/",
		Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:2/"},
		ProbeInterval: time.Hour,
	}); err != nil {
		t.Fatalf("normalized config rejected: %v", err)
	}
}
