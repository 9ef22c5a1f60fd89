package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"topoopt"
)

// tinyFleetSpec is a fast inline fleet run (fixed-duration jobs: the
// engine's no-training path, so tests don't pay for strategy searches).
func tinyFleetSpec(seed int64) topoopt.FleetSpec {
	return topoopt.FleetSpec{
		Servers: 8, Degree: 1, LinkBandwidth: 1e9,
		Arch: "Fat-tree", Policy: "fifo", Provisioning: "ocs", Seed: seed,
		Trace: topoopt.FleetTraceSpec{Inline: []topoopt.FleetJobSpec{
			{AtS: 0, Workers: 4, FixedDurationS: 50},
			{AtS: 1, Workers: 8, FixedDurationS: 20},
			{AtS: 2, Workers: 2, FixedDurationS: 10},
		}},
	}
}

func postFleet(t *testing.T, url string, spec topoopt.FleetSpec) (int, Job, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(FleetRequest{Spec: spec})
	resp, err := http.Post(url+"/v1/fleet", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, Job{}, e
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, j, nil
}

// fleetJobResult re-decodes a done job's kind-tagged result envelope
// into the concrete fleet result type (over HTTP the envelope's Result
// arrives as generic JSON).
func fleetJobResult(t *testing.T, j Job) topoopt.FleetResult {
	t.Helper()
	raw, err := json.Marshal(j.Result)
	if err != nil {
		t.Fatal(err)
	}
	var fr topoopt.FleetResult
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatalf("decoding fleet job result: %v", err)
	}
	return fr
}

func pollJob(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch j.Status {
		case JobDone, JobFailed, JobCancelled:
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return Job{}
}

// TestHTTPFleetRoundTrip: POST /v1/fleet runs asynchronously through the
// job machinery; a repeat submission of the same canonical spec returns
// the same fingerprint and a byte-identical cached result.
func TestHTTPFleetRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, j1, _ := postFleet(t, ts.URL, tinyFleetSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done1 := pollJob(t, ts.URL, j1.ID)
	if done1.Status != JobDone || done1.Result == nil {
		t.Fatalf("job 1 = %+v", done1)
	}
	if done1.Kind != kindFleet {
		t.Errorf("fleet job kind = %q, want %q", done1.Kind, kindFleet)
	}
	fr1 := fleetJobResult(t, done1)
	if len(fr1.Jobs) != 3 {
		t.Fatalf("fleet result has %d jobs, want 3", len(fr1.Jobs))
	}

	// Repeat: same fingerprint, instantly done from the cache, identical
	// result bytes.
	_, j2, _ := postFleet(t, ts.URL, tinyFleetSpec(1))
	if j2.Fingerprint != j1.Fingerprint {
		t.Errorf("repeat fingerprint %s != %s", j2.Fingerprint, j1.Fingerprint)
	}
	done2 := pollJob(t, ts.URL, j2.ID)
	b1, _ := json.Marshal(done1.Result)
	b2, _ := json.Marshal(done2.Result)
	if !bytes.Equal(b1, b2) {
		t.Error("cached repeat returned a different result")
	}

	// A different seed is a different fingerprint.
	_, j3, _ := postFleet(t, ts.URL, tinyFleetSpec(2))
	if j3.Fingerprint == j1.Fingerprint {
		t.Error("seed must be part of the fleet fingerprint")
	}
}

// TestHTTPFleetValidation: structural 400s for bad specs, with the
// unified bad_request code, the spec detail group, and a menu in the
// message.
func TestHTTPFleetValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := tinyFleetSpec(1)
	bad.Arch = "NoSuchFabric"
	code, _, e := postFleet(t, ts.URL, bad)
	if code != http.StatusBadRequest {
		t.Fatalf("bad arch status %d", code)
	}
	msg, _ := json.Marshal(e)
	if !strings.Contains(string(msg), `"bad_request"`) ||
		!strings.Contains(string(msg), `"spec"`) ||
		!strings.Contains(string(msg), "TopoOpt") {
		t.Errorf("error should carry bad_request, the spec detail group and the registered menu: %s", msg)
	}

	bad = tinyFleetSpec(1)
	bad.Policy = "lifo"
	if code, _, _ := postFleet(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Errorf("bad policy status %d", code)
	}

	// A GPU that cannot time a layer would simulate +Inf JCTs.
	bad = tinyFleetSpec(1)
	bad.GPU = topoopt.GPU{PeakFLOPS: 1e12}
	code, _, e = postFleet(t, ts.URL, bad)
	if msg, _ := json.Marshal(e); code != http.StatusBadRequest ||
		!strings.Contains(string(msg), `"bad_request"`) || !strings.Contains(string(msg), `"spec"`) {
		t.Errorf("GPU without mem_bandwidth: status %d, error %s; want 400 bad_request on spec", code, msg)
	}

	// Unknown fields are rejected like every other endpoint.
	resp, err := http.Post(ts.URL+"/v1/fleet", "application/json",
		strings.NewReader(`{"spec": {"servers": 8}, "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d", resp.StatusCode)
	}
}

// TestFleetFingerprintCanonical: omitted defaults and their explicit
// spellings share one fleet cache entry; every identity-bearing field
// separates entries.
func TestFleetFingerprintCanonical(t *testing.T) {
	a := tinyFleetSpec(1)
	b := tinyFleetSpec(1)
	b.Policy = "" // canonicalizes to fifo
	if FleetFingerprint(a) != FleetFingerprint(b) {
		t.Error("default policy spelling variants must share a fingerprint")
	}
	c := tinyFleetSpec(1)
	c.Policy = "backfill"
	if FleetFingerprint(a) == FleetFingerprint(c) {
		t.Error("policy must be part of the fingerprint")
	}
	d := tinyFleetSpec(1)
	d.Arch = "Expander"
	if FleetFingerprint(a) == FleetFingerprint(d) {
		t.Error("arch must be part of the fingerprint")
	}
}

// TestFleetJobCancellation: DELETE /v1/jobs/{id} cancels a running fleet
// simulation through the shared job machinery.
func TestFleetJobCancellation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A training fleet run big enough to still be in flight when the
	// cancel lands (co-optimized TopoOpt searches per shard size).
	spec := topoopt.FleetSpec{
		Servers: 32, Degree: 3, LinkBandwidth: 100e9,
		Arch: "TopoOpt", Seed: 42, MCMCIters: 400, Rounds: 3,
		Trace: topoopt.FleetTraceSpec{
			Jobs: 64, MeanInterarrivalS: 300, WorkerDivisor: 16, MaxWorkers: 24,
		},
	}
	_, j, _ := postFleet(t, ts.URL, spec)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := pollJob(t, ts.URL, j.ID)
	if final.Status != JobCancelled && final.Status != JobDone {
		t.Errorf("cancelled fleet job ended as %q", final.Status)
	}
}

// TestSubmitFleetRejectsInvalid: the service-level entry point validates
// too (callers that bypass HTTP get the same contract).
func TestSubmitFleetRejectsInvalid(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bad := tinyFleetSpec(1)
	bad.Servers = 0
	if _, err := s.SubmitFleet(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}
