package trace

import "testing"

func TestFingerprintDiscriminates(t *testing.T) {
	a := NewDataset("app", 1, 2, 3, 4)
	b := NewDataset("app", 1, 2, 3, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical datasets have different fingerprints")
	}

	b.Block(0, 1, 2)[3] = 1e-6
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("sample change not reflected in fingerprint")
	}

	c := NewDataset("other", 1, 2, 3, 4)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("app name not reflected in fingerprint")
	}

	// Same total size, different shape.
	d := NewDataset("app", 1, 2, 4, 3)
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("geometry not reflected in fingerprint")
	}
}

func TestFingerprintStableAcrossCalls(t *testing.T) {
	d := NewDataset("app", 2, 2, 2, 2)
	eachBlock(d, func(i, j, k int, xs []float64) {
		for l := range xs {
			xs[l] = float64(i*1000+j*100+k*10+l) * 1e-6
		}
	})
	if d.Fingerprint() != d.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}
