package serve

import (
	"runtime"
	"testing"
	"weak"

	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// TestResultCacheDoesNotPinDatasets: a cached study result keeps only
// the analysed fields, so a dataset the engine's cache evicted becomes
// garbage even while its result is still served from the result cache.
func TestResultCacheDoesNotPinDatasets(t *testing.T) {
	const maxDatasets = 2
	s := New(Options{Workers: 1, MaxDatasets: maxDatasets})
	first := StudySpec{App: "minife", Geometry: ptr(testGeom())}
	if _, _, err := s.runStudy(first); err != nil {
		t.Fatal(err)
	}
	model, err := workload.ByName(first.App)
	if err != nil {
		t.Fatal(err)
	}
	ds, hit, err := s.eng.DatasetDLB(model, testGeom(), dlb.Spec{})
	if err != nil || !hit {
		t.Fatalf("first dataset not cached (hit %v, err %v)", hit, err)
	}
	firstDataset := weak.Make(ds)
	ds = nil

	for seed := uint64(2); seed <= maxDatasets+2; seed++ {
		g := testGeom()
		g.Seed = seed
		if _, _, err := s.runStudy(StudySpec{App: first.App, Geometry: &g}); err != nil {
			t.Fatal(err)
		}
	}
	if s.eng.EvictedDatasets() == 0 {
		t.Fatal("the dataset cache never evicted")
	}
	runtime.GC()
	if firstDataset.Value() != nil {
		t.Error("an evicted dataset is still reachable: the result cache pins it")
	}
	if _, src, err := s.runStudy(first); err != nil || src != SourceResultCache {
		t.Errorf("first study served from %q (err %v), want the result cache", src, err)
	}
}
