package engine

import (
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// TestSpecKeyIncludesDLB: differently balanced runs must never share a
// dedup key, a rendezvous hash, or a dataset cache entry.
func TestSpecKeyIncludesDLB(t *testing.T) {
	quick := cluster.SmallConfig()
	static, err := Spec{App: "minife", Geometry: quick}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	lewi, err := Spec{App: "minife", Geometry: quick, DLB: dlb.Spec{Policy: dlb.PolicyLeWI}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if static.Key() == lewi.Key() {
		t.Fatal("static and lewi specs share a dedup key")
	}
	if static.Key().Hash() == lewi.Key().Hash() {
		t.Fatal("static and lewi specs share a rendezvous hash")
	}

	// Bare "lewi" and its spelled-out defaults are the same study.
	lewiExplicit, err := Spec{App: "minife", Geometry: quick, DLB: dlb.Spec{
		Policy: dlb.PolicyLeWI, LaggardFactor: dlb.DefaultLaggardFactor, MaxLendFraction: dlb.DefaultMaxLendFraction,
	}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if lewi.Key() != lewiExplicit.Key() {
		t.Fatal("canonical lewi forms resolve to different keys")
	}

	// "static" spelled out equals the zero policy.
	staticExplicit, err := Spec{App: "minife", Geometry: quick, DLB: dlb.Spec{Policy: dlb.PolicyStatic}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if static.Key() != staticExplicit.Key() {
		t.Fatal("explicit static differs from zero policy")
	}
}

// TestEngineCachesPerPolicy: the dataset cache must treat each policy as
// its own dataset and still deduplicate within one policy.
func TestEngineCachesPerPolicy(t *testing.T) {
	e := New(2)
	model := workload.DefaultMiniFE()
	quick := cluster.SmallConfig()

	a, hit, err := e.DatasetDLB(model, quick, dlb.Spec{})
	if err != nil || hit {
		t.Fatalf("first static: hit=%v err=%v", hit, err)
	}
	b, hit, err := e.DatasetDLB(model, quick, dlb.Spec{Policy: dlb.PolicyLeWI})
	if err != nil || hit {
		t.Fatalf("first lewi: hit=%v err=%v", hit, err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("policies shared a dataset")
	}
	if got := e.Executions(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}
	// Same policy, spelled differently: cache hit, no third generation.
	c, hit, err := e.DatasetDLB(model, quick, dlb.Spec{
		Policy: dlb.PolicyLeWI, LaggardFactor: dlb.DefaultLaggardFactor, MaxLendFraction: dlb.DefaultMaxLendFraction,
	})
	if err != nil || !hit {
		t.Fatalf("canonical lewi re-request: hit=%v err=%v", hit, err)
	}
	if c != b {
		t.Fatal("canonical lewi forms got distinct stores")
	}
	if got := e.Executions(); got != 2 {
		t.Fatalf("executions after re-request = %d, want 2", got)
	}
	// Invalid policies error instead of caching garbage.
	if _, _, err := e.DatasetDLB(model, quick, dlb.Spec{Policy: "turbo"}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}
