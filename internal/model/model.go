// Package model defines the DNN workloads TopoOpt is evaluated on: DLRM,
// CANDLE (Uno), BERT, NCF, ResNet50 and VGG16/19, with the exact
// configurations of List 1 in the paper's Appendix D. A model is a coarse
// operator graph — a sequence of layers, each with parameter bytes,
// per-sample activation bytes and per-sample forward FLOPs — plus a
// roofline GPU compute model used to convert FLOPs into seconds.
//
// The paper obtains compute times by FlexFlow's on-device measurement; we
// substitute an analytic A100 roofline (see DESIGN.md, substitution table).
// Only relative magnitudes matter to the reproduced figures.
package model

import "fmt"

// LayerKind classifies a layer for parallelization purposes.
type LayerKind int

const (
	// KindDense is a fully connected layer (weight-heavy, compute-heavy).
	KindDense LayerKind = iota
	// KindConv is a convolutional layer (compute-heavy, weight-light).
	KindConv
	// KindEmbedding is an embedding table lookup (weight-huge,
	// memory-bound, near-zero FLOPs). Shardable across servers.
	KindEmbedding
	// KindAttention is a transformer attention block.
	KindAttention
	// KindInteraction is a feature-interaction / concat layer (DLRM).
	KindInteraction
)

func (k LayerKind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindConv:
		return "conv"
	case KindEmbedding:
		return "embedding"
	case KindAttention:
		return "attention"
	case KindInteraction:
		return "interaction"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Layer is one coarse operator of a DNN.
type Layer struct {
	Name string
	Kind LayerKind
	// ParamBytes is the size of the layer's weights (fp32).
	ParamBytes int64
	// ActBytesPerSample is the size of the layer's output activation for
	// one input sample. This is what MP transfers carry when the layer's
	// consumer lives on another server.
	ActBytesPerSample int64
	// FwdFLOPsPerSample is the forward-pass FLOP count per sample. The
	// backward pass is modelled as 2x forward, the standard accounting.
	FwdFLOPsPerSample float64
	// Shardable marks layers that may be placed on a subset of servers
	// with model parallelism (embedding tables and very large dense
	// layers).
	Shardable bool
}

// Model is a coarse operator-graph description of a DNN training workload.
type Model struct {
	Name string
	// Layers in topological (forward) order.
	Layers []Layer
	// BatchPerGPU is the default per-GPU batch size for the experiment
	// section the model was configured for.
	BatchPerGPU int
}

// TotalParamBytes returns the total weight footprint.
func (m *Model) TotalParamBytes() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.ParamBytes
	}
	return t
}

// DenseParamBytes returns weight bytes excluding shardable layers — the
// portion replicated under hybrid parallelism, hence the AllReduce volume.
func (m *Model) DenseParamBytes() int64 {
	var t int64
	for _, l := range m.Layers {
		if !l.Shardable {
			t += l.ParamBytes
		}
	}
	return t
}

// ShardableLayers returns the indices of shardable layers.
func (m *Model) ShardableLayers() []int {
	var idx []int
	for i, l := range m.Layers {
		if l.Shardable {
			idx = append(idx, i)
		}
	}
	return idx
}

// GPU is a roofline compute device: a layer's time is the max of its
// compute time (FLOPs / peak) and its memory time (bytes touched / HBM
// bandwidth).
type GPU struct {
	Name string `json:"name"`
	// PeakFLOPS is sustained training throughput in FLOP/s.
	PeakFLOPS float64 `json:"peak_flops"`
	// MemBandwidth is HBM bandwidth in bytes/s.
	MemBandwidth float64 `json:"mem_bandwidth"`
}

// A100 approximates an NVIDIA A100: 312 TFLOPS tensor-core peak derated to
// ~40% sustained utilisation, 1.555 TB/s HBM2.
var A100 = GPU{Name: "A100", PeakFLOPS: 125e12, MemBandwidth: 1.555e12}

// Validate checks that g can time a layer: LayerTime divides by both
// roofline ceilings, so a zero one makes every iteration +Inf and a
// negative one makes compute look free.
func (g GPU) Validate() error {
	if !(g.PeakFLOPS > 0) || !(g.MemBandwidth > 0) {
		return fmt.Errorf("GPU peak_flops and mem_bandwidth must be positive, got %g and %g",
			g.PeakFLOPS, g.MemBandwidth)
	}
	return nil
}

// LayerTime returns the forward+backward time in seconds for one layer at
// the given local batch size on this GPU.
func (g GPU) LayerTime(l Layer, batch int) float64 {
	const bwdFactor = 3 // fwd + 2x bwd
	flops := l.FwdFLOPsPerSample * float64(batch) * bwdFactor
	// Bytes touched: read weights + write activations (both directions).
	bytes := float64(l.ParamBytes) + float64(l.ActBytesPerSample)*float64(batch)*bwdFactor
	ct := flops / g.PeakFLOPS
	mt := bytes / g.MemBandwidth
	if mt > ct {
		return mt
	}
	return ct
}

const f32 = 4 // bytes per fp32 value

// dense returns a fully connected layer in->out.
func dense(name string, in, out int, shardable bool) Layer {
	return Layer{
		Name:              name,
		Kind:              KindDense,
		ParamBytes:        int64(in) * int64(out) * f32,
		ActBytesPerSample: int64(out) * f32,
		FwdFLOPsPerSample: 2 * float64(in) * float64(out),
		Shardable:         shardable,
	}
}

// embedding returns one embedding table with the given rows and dimension.
// Lookups are memory-bound: FLOPs ~ 0, activation = dim values.
func embedding(name string, rows, dim int) Layer {
	return Layer{
		Name:              name,
		Kind:              KindEmbedding,
		ParamBytes:        int64(rows) * int64(dim) * f32,
		ActBytesPerSample: int64(dim) * f32,
		FwdFLOPsPerSample: float64(dim), // gather + pooling
		Shardable:         true,
	}
}
