package serve

import (
	"encoding/json"
	"fmt"
	"testing"

	"topoopt"
)

// FuzzPlanRequestDecode drives the plan decoder with arbitrary bodies.
// For any body, decodePlanBytes must not panic, and a request it accepts
// must have a canonical form that re-encodes and decodes to the same
// Fingerprint, with a canonical GPU that can time a layer (positive
// peak_flops and mem_bandwidth). The seed corpus runs under plain go
// test; explore beyond it with
//
//	go test ./internal/serve -run '^$' -fuzz FuzzPlanRequestDecode -fuzztime 45s
func FuzzPlanRequestDecode(f *testing.F) {
	for _, body := range []string{
		// The README and verify-skill examples.
		`{"model":{"preset":"bert","section":"5.3"},"options":{"servers":16,"degree":4,"link_bandwidth":100e9,"seed":1}}`,
		`{"model":{"preset":"bert","section":"6"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"mcmc_iters":30,"rounds":1,"seed":1}}`,
		// dlrm and ncf bodies like topobench's replan stream.
		`{"model":{"preset":"dlrm","section":"6"},"options":{"servers":8,"degree":2,"link_bandwidth":31.25e9}}`,
		`{"model":{"preset":"dlrm","section":"5.6"},"options":{"servers":10,"degree":4,"link_bandwidth":100e9,"seed":7,"mcmc_iters":200}}`,
		`{"model":{"preset":"ncf"},"options":{"servers":12,"degree":4,"link_bandwidth":100e9,"seed":7,"mcmc_iters":300}}`,
		// Every override spelled out.
		`{"model":{"preset":"VGG","vgg_depth":19,"batch_per_gpu":16},"options":{"servers":16,"degree":4,"link_bandwidth":100e9,"batch_per_gpu":8,"parallelism":2,"prime_only":true,"gpu":{"name":"H100","peak_flops":4e14,"mem_bandwidth":3.35e12}}}`,
		// GPUs and sizes that cannot describe a run.
		`{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"gpu":{"peak_flops":1e12}}}`,
		`{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"gpu":{"peak_flops":-1e12,"mem_bandwidth":1e12}}}`,
		`{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"batch_per_gpu":-8}}`,
		`{"model":{"preset":"bert","batch_per_gpu":-8},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`,
		`{"model":{"preset":"vgg16","vgg_depth":-1},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PlanRequest
		if _, aerr := decodePlanBytes(body, &req); aerr != nil {
			return
		}
		canon := PlanRequest{Model: req.Model.Canonical(), Options: req.Options.Canonical()}
		if g := canon.Options.GPU; !(g.PeakFLOPS > 0) || !(g.MemBandwidth > 0) {
			t.Fatalf("accepted %s with canonical GPU %+v", body, g)
		}
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical form of %s does not encode: %v", body, err)
		}
		var again PlanRequest
		if _, aerr := decodePlanBytes(b, &again); aerr != nil {
			t.Fatalf("canonical form %s of accepted %s rejected: %s", b, body, aerr.Message)
		}
		if got, want := again.Fingerprint(), req.Fingerprint(); got != want {
			t.Fatalf("canonical form %s fingerprints %s, the accepted %s %s", b, got, body, want)
		}
	})
}

// FuzzCompareRequestDecode drives the compare decoder with arbitrary
// bodies. For any body, decodeCompareBytes must not panic, and a request
// it accepts must have a canonical form — canonical model and options,
// registry architecture names — that decodes again to the same
// CompareFingerprint, with a canonical GPU that can time a layer.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzCompareRequestDecode -fuzztime 45s
func FuzzCompareRequestDecode(f *testing.F) {
	for _, body := range []string{
		// The README example and an explicit arch subset.
		`{"model":{"preset":"bert","section":"5.3"},"options":{"servers":16,"degree":4,"link_bandwidth":100e9,"seed":1}}`,
		`{"model":{"preset":"candle","section":"6"},"options":{"servers":4,"degree":2,"link_bandwidth":100e9,"mcmc_iters":5,"rounds":1,"seed":3},"archs":["IdealSwitch","Fat-tree"]}`,
		// Names outside the registry and an empty list.
		`{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9},"archs":["fat-tree"]}`,
		`{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9},"archs":[]}`,
	} {
		f.Add([]byte(body))
	}
	// topobench's compare bodies: the §5.1 grid at 128 servers.
	for _, d := range []int{4, 8} {
		for _, preset := range []string{"bert", "resnet50", "vgg16", "candle"} {
			f.Add([]byte(fmt.Sprintf(`{"model":{"preset":%q},"options":{"servers":128,"degree":%d,"link_bandwidth":1.0036e11,"seed":1}}`, preset, d)))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CompareRequest
		_, archs, aerr := decodeCompareBytes(body, &req)
		if aerr != nil {
			return
		}
		canon := CompareRequest{Model: req.Model.Canonical(), Options: req.Options.Canonical()}
		if g := canon.Options.GPU; !(g.PeakFLOPS > 0) || !(g.MemBandwidth > 0) {
			t.Fatalf("accepted %s with canonical GPU %+v", body, g)
		}
		for _, a := range archs {
			canon.Archs = append(canon.Archs, string(a))
		}
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical form of %s does not encode: %v", body, err)
		}
		var again CompareRequest
		_, againArchs, aerr := decodeCompareBytes(b, &again)
		if aerr != nil {
			t.Fatalf("canonical form %s of accepted %s rejected: %s", b, body, aerr.Message)
		}
		got := CompareFingerprint(again.Model, again.Options, againArchs)
		if want := CompareFingerprint(req.Model, req.Options, archs); got != want {
			t.Fatalf("canonical form %s fingerprints %s, the accepted %s %s", b, got, body, want)
		}
	})
}

// FuzzFleetSpecDecode drives the fleet and sweep decoders with arbitrary
// bodies: each body is tried as a POST /v1/fleet and as a POST /v1/sweep
// request. Neither may panic, and a request one accepts must have a
// canonical form (the canonical spec) that it accepts again with the same
// FleetFingerprint or SweepFingerprint.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzFleetSpecDecode -fuzztime 45s
func FuzzFleetSpecDecode(f *testing.F) {
	// The README's fleet and sweep examples.
	readme := `{"servers":64,"degree":3,"link_bandwidth":100e9,"arch":"TopoOpt","policy":"backfill","seed":1,` +
		`"trace":{"jobs":24,"mean_interarrival_s":600,"worker_divisor":16,"max_workers":32}}`
	f.Add([]byte(`{"spec":` + readme + `}`))
	f.Add([]byte(`{"replicas":64,"spec":` + readme + `}`))
	f.Add([]byte(`{"replicas":4,"async":true,"spec":` + readme + `}`))
	// Every built-in scenario, as a fleet run and as a sweep.
	for _, name := range topoopt.FleetScenarios() {
		spec, err := topoopt.FleetScenario(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"spec":` + string(b) + `}`))
		f.Add([]byte(`{"spec":` + string(b) + `,"replicas":8}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fleet FleetRequest
		if decodeJSONBytes(body, &fleet) == nil && fleet.Spec.Validate() == nil {
			b, err := json.Marshal(FleetRequest{Spec: fleet.Spec.Canonical()})
			if err != nil {
				t.Fatalf("canonical form of %s does not encode: %v", body, err)
			}
			var again FleetRequest
			if aerr := decodeJSONBytes(b, &again); aerr != nil {
				t.Fatalf("canonical fleet form %s of accepted %s rejected: %s", b, body, aerr.Message)
			}
			if err := again.Spec.Validate(); err != nil {
				t.Fatalf("canonical fleet form %s of accepted %s invalid: %v", b, body, err)
			}
			if got, want := FleetFingerprint(again.Spec), FleetFingerprint(fleet.Spec); got != want {
				t.Fatalf("canonical fleet form %s fingerprints %s, the accepted %s %s", b, got, body, want)
			}
		}
		var sweep SweepRequest
		if decodeJSONBytes(body, &sweep) == nil && validateSweep(sweep) == nil {
			b, err := json.Marshal(SweepRequest{Spec: sweep.Spec.Canonical(), Replicas: sweep.Replicas, Async: sweep.Async})
			if err != nil {
				t.Fatalf("canonical form of %s does not encode: %v", body, err)
			}
			var again SweepRequest
			aerr := decodeJSONBytes(b, &again)
			if aerr == nil {
				aerr = validateSweep(again)
			}
			if aerr != nil {
				t.Fatalf("canonical sweep form %s of accepted %s rejected: %s", b, body, aerr.Message)
			}
			got := SweepFingerprint(again.Spec, again.Replicas)
			if want := SweepFingerprint(sweep.Spec, sweep.Replicas); got != want {
				t.Fatalf("canonical sweep form %s fingerprints %s, the accepted %s %s", b, got, body, want)
			}
		}
	})
}
