package bench

import (
	"testing"

	"spq/internal/core"
)

// BenchmarkPlannedClusteredQuery measures one fig-9c-style point (CL
// dataset, grid 15, 3 keywords, r=10% of cell) as a planned spq.Engine
// query on SPQ3 storage. It is the profiling anchor for the serving path.
func BenchmarkPlannedClusteredQuery(b *testing.B) {
	h := New(Config{MapSlots: 4, ReduceSlots: 4})
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
	if _, err := h.runPlanned(ds, core.ESPQSco, q, defaultGridSyn); err != nil { // warm cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.runPlanned(ds, core.ESPQSco, q, defaultGridSyn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegacyClusteredQuery is the same point on the unplanned
// full-scan reference path, for comparison.
func BenchmarkLegacyClusteredQuery(b *testing.B) {
	h := New(Config{MapSlots: 4, ReduceSlots: 4})
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.runFullScan(ds, core.ESPQSco, q, defaultGridSyn); err != nil {
			b.Fatal(err)
		}
	}
}
