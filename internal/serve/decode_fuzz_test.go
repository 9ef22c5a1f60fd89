package serve

import (
	"encoding/json"
	"testing"
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
