package model

import (
	"testing"
)

func TestDLRMPaperExample(t *testing.T) {
	// §2.1 example: 4 embedding tables of 512 columns × 1e7 rows, total
	// model size ~22 GB (tables alone are 4·512·1e7·4 B ≈ 82 GB with fp32;
	// the paper's 22 GB implies ~fp32 with 512-dim at 1e7 rows summing with
	// the dense part — we check the tables dominate and the per-table size
	// is rows·dim·4).
	m := DLRM(DLRMConfig{BatchPerGPU: 8192, DenseLayers: 8, DenseLayerSize: 1024,
		DenseFeatLayers: 4, FeatLayerSize: 512, EmbedDim: 512, EmbedRows: 1e7, EmbedTables: 4})
	var emb int64
	for _, l := range m.Layers {
		if l.Kind == KindEmbedding {
			emb += l.ParamBytes
			if l.ParamBytes != 512*1e7*4 {
				t.Errorf("table size = %d, want %d", l.ParamBytes, int64(512*1e7*4))
			}
			if !l.Shardable {
				t.Error("embedding table should be shardable")
			}
		}
	}
	if emb <= m.DenseParamBytes() {
		t.Error("embedding tables should dominate dense params")
	}
	// MP transfer check from §2.1: 8192 samples × 512 dim × bytes/val per
	// destination server. With fp32 that is 16 MB (the paper uses fp64 → 32 MB).
	act := m.Layers[4].ActBytesPerSample // first embedding
	if got := act * 8192; got != 512*4*8192 {
		t.Errorf("per-dest MP bytes = %d, want %d", got, int64(512*4*8192))
	}
}

func TestModelAggregates(t *testing.T) {
	m := CANDLEPreset(Sec53)
	if m.TotalParamBytes() <= 0 || fwdFLOPs(m) <= 0 {
		t.Fatal("CANDLE aggregates must be positive")
	}
	// CANDLE is a pure MLP: no shardable layers, dense == total.
	if m.DenseParamBytes() != m.TotalParamBytes() {
		t.Error("CANDLE should have no shardable params")
	}
	if len(m.ShardableLayers()) != 0 {
		t.Error("CANDLE should have no shardable layers")
	}
	// §5.3 CANDLE: 16 feat layers of 16384² plus 8 dense of 16384² → 24
	// layers ≈ 24·16384²·4 B ≈ 25.8 GB.
	wantApprox := int64(24) * 16384 * 16384 * 4
	if m.TotalParamBytes() != wantApprox {
		t.Errorf("CANDLE params = %d, want %d", m.TotalParamBytes(), wantApprox)
	}
}

func TestBERTParams(t *testing.T) {
	m := BERTPreset(Sec53)
	// 12 blocks × 12·1024² × 4 B ≈ 604 MB plus embedding and pooler.
	blockParams := int64(12) * 12 * 1024 * 1024 * 4
	if m.TotalParamBytes() < blockParams {
		t.Errorf("BERT params %d below block-only %d", m.TotalParamBytes(), blockParams)
	}
	if m.TotalParamBytes() > 2*blockParams {
		t.Errorf("BERT params %d implausibly high", m.TotalParamBytes())
	}
}

func TestVGGParamScale(t *testing.T) {
	m := VGG(64, 16)
	p := m.TotalParamBytes()
	// VGG16 ≈ 138M params ≈ 552 MB fp32. Coarse model should land within 2x.
	if p < 300e6 || p > 1200e6 {
		t.Errorf("VGG16 params = %d B, want ~552 MB ±2x", p)
	}
	v19 := VGG(64, 19)
	if fwdFLOPs(v19) <= fwdFLOPs(m) {
		t.Error("VGG19 should cost more FLOPs than VGG16")
	}
}

func TestResNetScale(t *testing.T) {
	m := ResNet50(128)
	p := m.TotalParamBytes()
	if p < 40e6 || p > 250e6 {
		t.Errorf("ResNet50 params = %d B, want ~102 MB fp32 ballpark", p)
	}
	fl := fwdFLOPs(m)
	if fl < 2e9 || fl > 8e9 {
		t.Errorf("ResNet50 FLOPs = %g, want ~4.1 GFLOPs", fl)
	}
}

func TestNCFTables(t *testing.T) {
	m := NCFPreset()
	nEmb := 0
	for _, l := range m.Layers {
		if l.Kind == KindEmbedding {
			nEmb++
		}
	}
	if nEmb != 128 {
		t.Errorf("NCF tables = %d, want 128 (32×4)", nEmb)
	}
	if len(m.ShardableLayers()) != 128 {
		t.Errorf("NCF shardable = %d, want 128", len(m.ShardableLayers()))
	}
}

func TestGPURoofline(t *testing.T) {
	// Compute-bound: big dense layer. Memory-bound: embedding.
	d := dense("d", 8192, 8192, false)
	e := embedding("e", 1e7, 128)
	g := A100
	dt := g.LayerTime(d, 128)
	et := g.LayerTime(e, 128)
	if dt <= 0 || et <= 0 {
		t.Fatal("layer times must be positive")
	}
	// Embedding time should be dominated by weight bytes / bandwidth.
	wantEmb := float64(e.ParamBytes) / g.MemBandwidth
	if et < wantEmb {
		t.Errorf("embedding time %g below memory floor %g", et, wantEmb)
	}
	// Dense time should be dominated by FLOPs.
	wantDense := d.FwdFLOPsPerSample * 128 * 3 / g.PeakFLOPS
	if dt < wantDense {
		t.Errorf("dense time %g below compute floor %g", dt, wantDense)
	}
}

func TestPresetsConstruct(t *testing.T) {
	for _, s := range []Section{Sec53, Sec56, Sec6} {
		for _, m := range []*Model{DLRMPreset(s), CANDLEPreset(s), BERTPreset(s),
			VGGPreset(s), ResNetPreset(s)} {
			if len(m.Layers) == 0 {
				t.Errorf("%s section %d: no layers", m.Name, s)
			}
			if m.BatchPerGPU <= 0 {
				t.Errorf("%s section %d: bad batch", m.Name, s)
			}
		}
	}
}

func TestDLRMAllToAllTables(t *testing.T) {
	m := DLRMAllToAll(512)
	n := 0
	for _, l := range m.Layers {
		if l.Kind == KindEmbedding {
			n++
		}
	}
	if n != 128 {
		t.Errorf("all-to-all DLRM tables = %d, want 128", n)
	}
	if m.BatchPerGPU != 512 {
		t.Errorf("batch = %d, want 512", m.BatchPerGPU)
	}
}

func TestLayerKindString(t *testing.T) {
	kinds := []LayerKind{KindDense, KindConv, KindEmbedding, KindAttention, KindInteraction}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	if LayerKind(99).String() != "kind(99)" {
		t.Error("unknown kind should format numerically")
	}
}

// fwdFLOPs sums forward FLOPs per sample over all of m's layers.
func fwdFLOPs(m *Model) float64 {
	t := 0.0
	for _, l := range m.Layers {
		t += l.FwdFLOPsPerSample
	}
	return t
}
