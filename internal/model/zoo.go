package model

import "fmt"

// Section selects which experiment's configuration (List 1, Appendix D) a
// preset constructor should produce.
type Section int

const (
	// Sec53 is the dedicated-cluster simulation configuration (§5.3).
	Sec53 Section = iota
	// Sec56 is the shared-cluster simulation configuration (§5.6).
	Sec56
	// Sec6 is the 12-node testbed configuration (§6).
	Sec6
)

// DLRMConfig parameterizes a Deep Learning Recommendation Model.
type DLRMConfig struct {
	BatchPerGPU     int
	DenseLayers     int // top MLP
	DenseLayerSize  int
	DenseFeatLayers int // bottom (feature) MLP
	FeatLayerSize   int
	EmbedDim        int
	EmbedRows       int
	EmbedTables     int
}

// DLRM builds a DLRM model: bottom feature MLP, embedding tables
// (shardable), feature interaction, top MLP.
func DLRM(c DLRMConfig) *Model {
	m := &Model{Name: "DLRM", BatchPerGPU: c.BatchPerGPU}
	for i := 0; i < c.DenseFeatLayers; i++ {
		m.Layers = append(m.Layers, dense(fmt.Sprintf("bot_mlp%d", i), c.FeatLayerSize, c.FeatLayerSize, false))
	}
	for i := 0; i < c.EmbedTables; i++ {
		m.Layers = append(m.Layers, embedding(fmt.Sprintf("emb%d", i), c.EmbedRows, c.EmbedDim))
	}
	inter := Layer{
		Name:              "interaction",
		Kind:              KindInteraction,
		ActBytesPerSample: int64(c.EmbedTables*c.EmbedDim+c.FeatLayerSize) * f32,
		FwdFLOPsPerSample: float64(c.EmbedTables) * float64(c.EmbedDim) * float64(c.EmbedTables),
	}
	m.Layers = append(m.Layers, inter)
	for i := 0; i < c.DenseLayers; i++ {
		in := c.DenseLayerSize
		if i == 0 {
			in = c.EmbedTables*c.EmbedDim + c.FeatLayerSize
		}
		m.Layers = append(m.Layers, dense(fmt.Sprintf("top_mlp%d", i), in, c.DenseLayerSize, false))
	}
	return m
}

// DLRMPreset returns the DLRM configuration of List 1 for the given section.
func DLRMPreset(s Section) *Model {
	switch s {
	case Sec53:
		return DLRM(DLRMConfig{BatchPerGPU: 128, DenseLayers: 8, DenseLayerSize: 2048,
			DenseFeatLayers: 16, FeatLayerSize: 4096, EmbedDim: 128, EmbedRows: 1e7, EmbedTables: 64})
	case Sec56:
		return DLRM(DLRMConfig{BatchPerGPU: 256, DenseLayers: 8, DenseLayerSize: 1024,
			DenseFeatLayers: 16, FeatLayerSize: 2048, EmbedDim: 256, EmbedRows: 1e7, EmbedTables: 16})
	case Sec6:
		return DLRM(DLRMConfig{BatchPerGPU: 64, DenseLayers: 4, DenseLayerSize: 1024,
			DenseFeatLayers: 8, FeatLayerSize: 2048, EmbedDim: 32768, EmbedRows: 1e5, EmbedTables: 12})
	}
	panic("model: unknown section")
}

// DLRMAllToAll is the §5.4 worst-case all-to-all configuration: 128 large
// embedding tables, one per server, with the given per-GPU batch size.
func DLRMAllToAll(batch int) *Model {
	return DLRM(DLRMConfig{BatchPerGPU: batch, DenseLayers: 8, DenseLayerSize: 2048,
		DenseFeatLayers: 16, FeatLayerSize: 4096, EmbedDim: 128, EmbedRows: 1e7, EmbedTables: 128})
}

// CANDLEConfig parameterizes the CANDLE Uno drug-response MLP.
type CANDLEConfig struct {
	BatchPerGPU     int
	DenseLayers     int
	DenseLayerSize  int
	DenseFeatLayers int
	FeatLayerSize   int
}

// CANDLE builds the CANDLE Uno model: feature encoders feeding a deep MLP.
func CANDLE(c CANDLEConfig) *Model {
	m := &Model{Name: "CANDLE", BatchPerGPU: c.BatchPerGPU}
	for i := 0; i < c.DenseFeatLayers; i++ {
		m.Layers = append(m.Layers, dense(fmt.Sprintf("feat%d", i), c.FeatLayerSize, c.FeatLayerSize, false))
	}
	for i := 0; i < c.DenseLayers; i++ {
		m.Layers = append(m.Layers, dense(fmt.Sprintf("mlp%d", i), c.DenseLayerSize, c.DenseLayerSize, false))
	}
	return m
}

// CANDLEPreset returns the CANDLE configuration of List 1.
func CANDLEPreset(s Section) *Model {
	switch s {
	case Sec53:
		return CANDLE(CANDLEConfig{BatchPerGPU: 256, DenseLayers: 8, DenseLayerSize: 16384,
			DenseFeatLayers: 16, FeatLayerSize: 16384})
	case Sec56:
		return CANDLE(CANDLEConfig{BatchPerGPU: 256, DenseLayers: 8, DenseLayerSize: 4096,
			DenseFeatLayers: 16, FeatLayerSize: 4096})
	case Sec6:
		return CANDLE(CANDLEConfig{BatchPerGPU: 10, DenseLayers: 4, DenseLayerSize: 4096,
			DenseFeatLayers: 8, FeatLayerSize: 4096})
	}
	panic("model: unknown section")
}

// BERTConfig parameterizes a BERT encoder.
type BERTConfig struct {
	BatchPerGPU int
	Blocks      int
	Hidden      int
	SeqLen      int
	AttnHeads   int
	EmbedSize   int
	VocabSize   int
}

// BERT builds a BERT encoder: token embedding plus transformer blocks.
// Per-block parameters are 4h² (attention) + 8h² (FFN); per-sample forward
// FLOPs are 2·seq·12h² + 4·seq²·h (attention scores and mixing).
func BERT(c BERTConfig) *Model {
	if c.VocabSize == 0 {
		c.VocabSize = 30522
	}
	m := &Model{Name: "BERT", BatchPerGPU: c.BatchPerGPU}
	emb := Layer{
		Name:              "token_embed",
		Kind:              KindEmbedding,
		ParamBytes:        int64(c.VocabSize) * int64(c.EmbedSize) * f32,
		ActBytesPerSample: int64(c.SeqLen) * int64(c.Hidden) * f32,
		FwdFLOPsPerSample: float64(c.SeqLen) * float64(c.EmbedSize),
		Shardable:         false, // BERT embeddings sync with the dense group
	}
	m.Layers = append(m.Layers, emb)
	h, s := float64(c.Hidden), float64(c.SeqLen)
	for i := 0; i < c.Blocks; i++ {
		m.Layers = append(m.Layers, Layer{
			Name:              fmt.Sprintf("block%d", i),
			Kind:              KindAttention,
			ParamBytes:        int64(12*c.Hidden*c.Hidden) * f32,
			ActBytesPerSample: int64(c.SeqLen) * int64(c.Hidden) * f32,
			FwdFLOPsPerSample: 2*s*12*h*h + 4*s*s*h,
		})
	}
	m.Layers = append(m.Layers, dense("pooler", c.Hidden, c.Hidden, false))
	return m
}

// BERTPreset returns the BERT configuration of List 1.
func BERTPreset(s Section) *Model {
	switch s {
	case Sec53:
		return BERT(BERTConfig{BatchPerGPU: 16, Blocks: 12, Hidden: 1024, SeqLen: 64,
			AttnHeads: 16, EmbedSize: 512})
	case Sec56:
		return BERT(BERTConfig{BatchPerGPU: 16, Blocks: 6, Hidden: 768, SeqLen: 256,
			AttnHeads: 6, EmbedSize: 512})
	case Sec6:
		return BERT(BERTConfig{BatchPerGPU: 2, Blocks: 6, Hidden: 1024, SeqLen: 1024,
			AttnHeads: 16, EmbedSize: 512})
	}
	panic("model: unknown section")
}

// NCFConfig parameterizes Neural Collaborative Filtering.
type NCFConfig struct {
	BatchPerGPU    int
	DenseLayers    int
	DenseLayerSize int
	UserTablesMF   int
	UserTablesMLP  int
	ItemTablesMF   int
	ItemTablesMLP  int
	UsersPerTable  int
	ItemsPerTable  int
	MFDim          int
	MLPDim         int
}

// NCF builds the NCF model: MF and MLP embedding tables plus an MLP tower.
func NCF(c NCFConfig) *Model {
	m := &Model{Name: "NCF", BatchPerGPU: c.BatchPerGPU}
	for i := 0; i < c.UserTablesMF; i++ {
		m.Layers = append(m.Layers, embedding(fmt.Sprintf("user_mf%d", i), c.UsersPerTable, c.MFDim))
	}
	for i := 0; i < c.UserTablesMLP; i++ {
		m.Layers = append(m.Layers, embedding(fmt.Sprintf("user_mlp%d", i), c.UsersPerTable, c.MLPDim))
	}
	for i := 0; i < c.ItemTablesMF; i++ {
		m.Layers = append(m.Layers, embedding(fmt.Sprintf("item_mf%d", i), c.ItemsPerTable, c.MFDim))
	}
	for i := 0; i < c.ItemTablesMLP; i++ {
		m.Layers = append(m.Layers, embedding(fmt.Sprintf("item_mlp%d", i), c.ItemsPerTable, c.MLPDim))
	}
	for i := 0; i < c.DenseLayers; i++ {
		in := c.DenseLayerSize
		if i == 0 {
			in = (c.UserTablesMLP + c.ItemTablesMLP) * c.MLPDim
		}
		m.Layers = append(m.Layers, dense(fmt.Sprintf("mlp%d", i), in, c.DenseLayerSize, false))
	}
	return m
}

// NCFPreset returns the NCF configuration of List 1 (§5.3 only).
func NCFPreset() *Model {
	return NCF(NCFConfig{BatchPerGPU: 128, DenseLayers: 8, DenseLayerSize: 4096,
		UserTablesMF: 32, UserTablesMLP: 32, ItemTablesMF: 32, ItemTablesMLP: 32,
		UsersPerTable: 1e6, ItemsPerTable: 1e6, MFDim: 64, MLPDim: 128})
}

// ResNet50 builds a coarse ResNet50: ~25.6M params, ~4.1 GFLOPs/sample,
// modelled as 16 residual stages plus stem and classifier.
func ResNet50(batch int) *Model {
	m := &Model{Name: "ResNet50", BatchPerGPU: batch}
	m.Layers = append(m.Layers, Layer{
		Name: "stem", Kind: KindConv,
		ParamBytes:        9408 * f32,
		ActBytesPerSample: 64 * 112 * 112 * f32 / 4,
		FwdFLOPsPerSample: 0.24e9,
	})
	// 16 bottleneck blocks across 4 stages with standard channel growth.
	stages := []struct {
		blocks, ch, sp int
	}{{3, 256, 56}, {4, 512, 28}, {6, 1024, 14}, {3, 2048, 7}}
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			params := int64(st.ch) * int64(st.ch) / 2 * f32 // ~c²/2 per bottleneck
			m.Layers = append(m.Layers, Layer{
				Name:              fmt.Sprintf("res%d_%d", si+2, b),
				Kind:              KindConv,
				ParamBytes:        params,
				ActBytesPerSample: int64(st.ch) * int64(st.sp) * int64(st.sp) * f32 / 8,
				FwdFLOPsPerSample: 4.1e9 * 0.95 / 16,
			})
		}
	}
	m.Layers = append(m.Layers, dense("fc", 2048, 1000, false))
	return m
}

// VGG builds VGG16 (or VGG19 with extra conv blocks): ~138M params
// dominated by fc6/fc7, ~15.5 GFLOPs/sample forward (19.6 for VGG19).
func VGG(batch int, depth int) *Model {
	name := fmt.Sprintf("VGG%d", depth)
	m := &Model{Name: name, BatchPerGPU: batch}
	convs := 13
	flops := 15.3e9
	if depth == 19 {
		convs = 16
		flops = 19.5e9
	}
	chans := []int{64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512, 512, 512, 512}
	for i := 0; i < convs; i++ {
		ch := chans[i]
		sp := 224 >> uint(i/3) // coarse spatial shrink
		if sp < 7 {
			sp = 7
		}
		m.Layers = append(m.Layers, Layer{
			Name:              fmt.Sprintf("conv%d", i),
			Kind:              KindConv,
			ParamBytes:        int64(ch) * int64(ch) * 9 * f32 / 2,
			ActBytesPerSample: int64(ch) * int64(sp) * int64(sp) * f32 / 16,
			FwdFLOPsPerSample: flops * 0.9 / float64(convs),
		})
	}
	m.Layers = append(m.Layers, dense("fc6", 25088, 4096, false))
	m.Layers = append(m.Layers, dense("fc7", 4096, 4096, false))
	m.Layers = append(m.Layers, dense("fc8", 4096, 1000, false))
	return m
}

// VGGPreset returns VGG16 with the batch size of List 1.
func VGGPreset(s Section) *Model {
	switch s {
	case Sec53, Sec56:
		return VGG(64, 16)
	case Sec6:
		return VGG(32, 16)
	}
	panic("model: unknown section")
}

// ResNetPreset returns ResNet50 with the batch size of List 1.
func ResNetPreset(s Section) *Model {
	switch s {
	case Sec53, Sec56:
		return ResNet50(128)
	case Sec6:
		return ResNet50(20)
	}
	panic("model: unknown section")
}
